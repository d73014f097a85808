#include "replay/session.hpp"

#include <utility>

namespace arpsec::replay {

SchemeSession::SchemeSession(std::unique_ptr<detect::Scheme> scheme, SessionOptions options)
    : scheme_(std::move(scheme)) {
    // Minimal offline LAN: a switch whose mirror port (0) feeds the
    // monitor. No hosts — the stream already contains everything the
    // mirror port saw, so protect_host() never applies at this vantage
    // (documented in docs/REPLAY.md: active-verification probes cannot be
    // answered by a recording, which costs best-effort schemes recall here).
    lan_ = std::make_unique<detect::Lan>(options.seed == 0 ? 1 : options.seed, 16);
    lan_->net().attach_metrics(metrics_);
    lan_->add_monitor();

    detect::DeploymentContext ctx;
    ctx.alerts = &alerts_;
    ctx.ops = &ops_;
    ctx.directory = std::move(options.directory);
    lan_->deploy(*scheme_, std::move(ctx));
    lan_->net().start_all();
}

SchemeSession::~SchemeSession() = default;

bool SchemeSession::feed(common::SimTime at, const wire::FrameView& view) {
    sim::Network& net = lan_->net();
    if (at > net.now()) net.scheduler().run_until(at);
    if (at > last_at_) last_at_ = at;
    ++frames_;
    // The view was parsed (and memoized) once when it was built; this is a
    // memo read, not a parse, no matter how many sessions see the frame.
    if (!view.ok()) {
        ++malformed_;
        return false;
    }
    lan_->monitor()->on_frame(0, view);
    return true;
}

void SchemeSession::finish(common::Duration grace) {
    const common::SimTime until = last_at_ + grace;
    if (until > now()) lan_->net().scheduler().run_until(until);
}

void SchemeSession::advance_to(common::SimTime at) {
    if (at > last_at_) last_at_ = at;
    if (at > now()) lan_->net().scheduler().run_until(at);
}

common::SimTime SchemeSession::now() const { return lan_->net().now(); }

}  // namespace arpsec::replay
