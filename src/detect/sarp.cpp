#include "detect/sarp.hpp"

#include <unordered_map>
#include <vector>

#include "detect/lan.hpp"

namespace arpsec::detect {

using common::Duration;
using crypto::KeyPair;
using crypto::PublicKey;
using crypto::Signature;
using wire::ArpPacket;
using wire::Bytes;
using wire::ByteReader;
using wire::ByteWriter;
using wire::Ipv4Address;
using wire::MacAddress;

namespace {

Bytes signed_region(const ArpPacket& pkt, std::uint64_t ts) {
    Bytes msg;
    ByteWriter w{msg};
    w.bytes(pkt.classic_bytes());
    w.u64(ts);
    return msg;
}

Bytes akd_record_region(Ipv4Address ip, std::uint64_t y, std::uint64_t expiry) {
    Bytes msg;
    ByteWriter w{msg};
    w.ipv4(ip);
    w.u64(y);
    w.u64(expiry);
    return msg;
}

}  // namespace

KeyPair SArpScheme::station_key(MacAddress mac) {
    return KeyPair::derive(0x5A52'0000'0000'0000ULL ^ mac.to_u64());
}

// ---------------------------------------------------------------------------
// Per-host hook
// ---------------------------------------------------------------------------

class SArpScheme::Hook final : public host::ArpHook,
                               public std::enable_shared_from_this<Hook> {
public:
    Hook(SArpScheme& scheme, host::Host& host)
        : scheme_(scheme), host_(host), own_key_(station_key(host.mac())) {
        // The AKD's identity is securely distributed at enrollment: pin its
        // binding so the key-fetch channel cannot itself be poisoned, and
        // preinstall its station key (fetching the AKD's key *from* the
        // AKD would deadlock the bootstrap).
        host_.arp_cache().set_static(scheme_.akd_ip_, scheme_.akd_mac_, host_.network().now());
        key_cache_[scheme_.akd_ip_] = station_key(scheme_.akd_mac_).public_key();
        host_.bind_udp(kClientPort, [this](host::Host&, const host::UdpRxInfo&,
                                           const Bytes& data) { on_akd_response(data); });
    }

    [[nodiscard]] const char* hook_name() const override { return "s-arp"; }

    Duration on_arp_transmit(host::Host&, ArpPacket& pkt) override {
        const auto ts = static_cast<std::uint64_t>(host_.network().now().nanos());
        const Signature sig = own_key_.sign(signed_region(pkt, ts));
        if (scheme_.ctx_.ops != nullptr) ++scheme_.ctx_.ops->signs;
        Bytes auth;
        ByteWriter w{auth};
        w.u8(kAuthTag);
        w.u64(ts);
        w.bytes(sig.serialize());
        pkt.auth = std::move(auth);
        return scheme_.ctx_.cost.sign;
    }

    Verdict on_arp_receive(host::Host& host, const ArpPacket& pkt,
                           const host::ArpRxInfo& info) override {
        if (pkt.auth.empty() || pkt.auth[0] != kAuthTag) {
            if (!scheme_.options_.strict) return Verdict::kAccept;
            Alert a;
            a.kind = AlertKind::kUnsignedArp;
            a.ip = pkt.sender_ip;
            a.claimed_mac = pkt.sender_mac;
            a.detail = "unsigned ARP dropped on " + host.name();
            scheme_.alert(std::move(a));
            return Verdict::kDrop;
        }

        ByteReader r{pkt.auth};
        r.u8();  // tag
        const std::uint64_t ts = r.u64();
        const Signature sig = Signature::deserialize(r.bytes(Signature::kWireSize));
        if (!r.ok()) return Verdict::kDrop;

        const auto now = host.network().now();
        const auto age = now.nanos() >= static_cast<std::int64_t>(ts)
                             ? Duration{now.nanos() - static_cast<std::int64_t>(ts)}
                             : Duration{static_cast<std::int64_t>(ts) - now.nanos()};
        if (age > scheme_.options_.timestamp_tolerance) {
            Alert a;
            a.kind = AlertKind::kBindingViolation;
            a.ip = pkt.sender_ip;
            a.claimed_mac = pkt.sender_mac;
            a.detail = "stale S-ARP timestamp (replay?)";
            scheme_.alert(std::move(a));
            return Verdict::kDrop;
        }

        // The AKD itself resolves keys from its local registry (there is
        // no network round trip from the key server to itself, and the
        // registry is always current).
        if (&host_ == scheme_.akd_host_) {
            auto reg = scheme_.registry_.find(pkt.sender_ip);
            if (reg == scheme_.registry_.end()) return Verdict::kDrop;  // unenrolled
            schedule_verification(Held{pkt, info, ts, sig, /*retried=*/true}, reg->second);
            return Verdict::kDefer;
        }

        if (auto key = key_cache_.find(pkt.sender_ip); key != key_cache_.end()) {
            schedule_verification(Held{pkt, info, ts, sig, /*retried=*/false}, key->second);
            return Verdict::kDefer;
        }

        // Cold path: fetch the sender's public key from the AKD first.
        enqueue_fetch(Held{pkt, info, ts, sig, /*retried=*/true});
        return Verdict::kDefer;
    }

private:
    struct Held {
        ArpPacket pkt;
        host::ArpRxInfo info;
        std::uint64_t ts;
        Signature sig;
        /// True once the key has been (re)fetched for this packet: a second
        /// verification failure is final.
        bool retried = false;
    };

    void schedule_verification(Held held, const PublicKey& key) {
        auto self = shared_from_this();
        host_.network().scheduler().schedule_after(
            scheme_.ctx_.cost.verify,
            [self, held = std::move(held), key] { self->verify_now(held, key); });
    }

    void verify_now(const Held& held, const PublicKey& key) {
        if (scheme_.ctx_.ops != nullptr) ++scheme_.ctx_.ops->verifies;
        if (!key.verify(signed_region(held.pkt, held.ts), held.sig)) {
            // A failure against a cached key may just mean the station
            // re-enrolled (NIC replacement, DHCP rebind): refetch once
            // before judging — key records at the AKD are authoritative.
            if (!held.retried) {
                key_cache_.erase(held.pkt.sender_ip);
                Held retry = held;
                retry.retried = true;
                enqueue_fetch(std::move(retry));
                return;
            }
            Alert a;
            a.kind = AlertKind::kBindingViolation;
            a.ip = held.pkt.sender_ip;
            a.claimed_mac = held.pkt.sender_mac;
            a.detail = "S-ARP signature verification failed on " + host_.name();
            scheme_.alert(std::move(a));
            return;  // drop
        }
        // Authenticity established; the regular cache policy now decides
        // (S-ARP replaces ARP's trust model, not its caching semantics).
        host_.resume_arp_processing(held.pkt, held.info, this);
    }

    void enqueue_fetch(Held held) {
        auto& waiting = pending_fetches_[held.pkt.sender_ip];
        waiting.push_back(std::move(held));
        if (waiting.size() == 1) send_key_request(waiting.back().pkt.sender_ip);
    }

    void send_key_request(Ipv4Address ip) {
        Bytes req;
        ByteWriter w{req};
        w.u8(1);
        w.ipv4(ip);
        host_.send_udp(scheme_.akd_ip_, kClientPort, kAkdPort, std::move(req));
        // Fetch timeout: abandon held packets.
        auto self = shared_from_this();
        host_.network().scheduler().schedule_after(scheme_.options_.key_fetch_timeout,
                                                   [self, ip] {
                                                       auto it = self->pending_fetches_.find(ip);
                                                       if (it != self->pending_fetches_.end()) {
                                                           self->pending_fetches_.erase(it);
                                                       }
                                                   });
    }

    void on_akd_response(const Bytes& data) {
        ByteReader r{data};
        if (r.u8() != 2) return;
        const Ipv4Address ip = r.ipv4();
        const std::uint64_t y = r.u64();
        const std::uint64_t expiry = r.u64();
        const Signature sig = Signature::deserialize(r.bytes(Signature::kWireSize));
        if (!r.ok()) return;
        if (scheme_.ctx_.ops != nullptr) ++scheme_.ctx_.ops->verifies;
        if (!scheme_.akd_key_->public_key().verify(akd_record_region(ip, y, expiry), sig)) {
            return;  // forged key record
        }
        const PublicKey key{y};
        key_cache_[ip] = key;
        auto it = pending_fetches_.find(ip);
        if (it == pending_fetches_.end()) return;
        auto held = std::move(it->second);
        pending_fetches_.erase(it);
        for (Held& h : held) schedule_verification(std::move(h), key);
    }

    SArpScheme& scheme_;
    host::Host& host_;
    KeyPair own_key_;
    std::unordered_map<Ipv4Address, PublicKey> key_cache_;
    std::unordered_map<Ipv4Address, std::vector<Held>> pending_fetches_;
};

// ---------------------------------------------------------------------------
// Scheme
// ---------------------------------------------------------------------------

SchemeTraits SArpScheme::traits() const {
    SchemeTraits t;
    t.name = "s-arp";
    t.vantage = "host+server";
    t.detects = true;
    t.prevents_poisoning = true;
    t.requires_protocol_change = true;
    t.requires_infrastructure = true;  // the AKD
    t.requires_per_host_deploy = true;
    t.uses_cryptography = true;
    t.handles_dynamic_ips = true;  // keys bind to stations, served per IP by AKD
    t.deployment_cost = CostBand::kHigh;
    t.runtime_cost = CostBand::kHigh;  // sign+verify per ARP, AKD RTT when cold
    t.notes = "signed ARP with AKD key server; incompatible with unmodified hosts";
    return t;
}

void SArpScheme::deploy(const DeploymentContext& ctx) {
    Scheme::deploy(ctx);
    akd_key_ = std::make_unique<KeyPair>(KeyPair::derive(0xA4D0));

    akd_ip_ = ctx_.lan->alloc_infra_ip();
    akd_mac_ = MacAddress::local(0xA4D0);

    host::HostConfig cfg;
    cfg.name = "akd";
    cfg.mac = akd_mac_;
    cfg.static_ip = akd_ip_;
    akd_host_ = &ctx_.lan->net().emplace_node<host::Host>(cfg);
    ctx_.lan->attach_infra(akd_host_->id());

    // Key registry: every directory station's public key, indexed by IP.
    for (const HostRecord& rec : ctx_.directory) {
        registry_[rec.ip] = station_key(rec.mac).public_key();
    }
    registry_[akd_ip_] = station_key(akd_mac_).public_key();

    host::Host* akd = akd_host_;
    SArpScheme* self = this;
    akd_host_->bind_udp(kAkdPort, [self, akd](host::Host&, const host::UdpRxInfo& info,
                                              const Bytes& data) {
        ByteReader r{data};
        if (r.u8() != 1) return;
        const Ipv4Address wanted = r.ipv4();
        if (!r.ok()) return;
        auto it = self->registry_.find(wanted);
        if (it == self->registry_.end()) return;  // unknown station: silence
        const std::uint64_t expiry =
            static_cast<std::uint64_t>((akd->network().now() + Duration::seconds(3600)).nanos());
        const std::uint64_t y = it->second.y();
        const Signature sig = self->akd_key_->sign(akd_record_region(wanted, y, expiry));
        if (self->ctx_.ops != nullptr) ++self->ctx_.ops->signs;
        Bytes resp;
        ByteWriter w{resp};
        w.u8(2);
        w.ipv4(wanted);
        w.u64(y);
        w.u64(expiry);
        w.bytes(sig.serialize());
        // Charge the AKD's signing latency before the response leaves.
        const Ipv4Address reply_to = info.src_ip;
        akd->after(self->ctx_.cost.sign, [akd, reply_to, resp = std::move(resp)] {
            akd->send_udp(reply_to, kAkdPort, kClientPort, resp);
        });
    });

    // The AKD speaks S-ARP too.
    protect_host(*akd_host_);
}

void SArpScheme::protect_host(host::Host& host) {
    host.add_arp_hook(std::make_shared<Hook>(*this, host));
    // Enrollment: whenever the station (re)acquires an address, its public
    // key is registered at the AKD under that IP — the S-ARP deployment
    // step that follows any NIC replacement or DHCP rebind. (The enrollment
    // channel itself is assumed authenticated, as in the original design.)
    host::Host* h = &host;
    host.add_ip_listener([this, h](wire::Ipv4Address ip) {
        registry_[ip] = station_key(h->mac()).public_key();
    });
}

}  // namespace arpsec::detect
