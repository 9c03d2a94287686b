// Package adaptive closes the speculation-control loop that the paper's
// §6 cost-aware objective leaves open. SolveSKPCostAware already solves
// g°(F) − λ·Waste(F) exactly for a *given* λ, but λ prices wasted network
// time against a private link; at the shared server of the multiclient
// simulation the true price of speculation is the congestion it inflicts
// on everyone, and that price moves round by round. This package turns
// the static λ knob into a feedback policy: each browsing round the
// client observes a congestion signal fed back from the server (the
// scheduler's sliding-window utilisation, its own demand queueing delay,
// and the admission controller's drop/defer counts) and a Controller maps
// that Feedback stream to the λ the next plan is solved with.
//
// Controllers are pure deterministic functions of their feedback stream:
// no randomness, no wall clock, no hidden state beyond what the stream
// itself determines. Identical seeds therefore replay bit-for-bit, and
// the static controller — which ignores feedback entirely — reproduces
// the fixed-λ planner exactly.
//
// Built-in controllers:
//
//   - KindStatic — λ ≡ Lambda0 every round; with Lambda0 = 0 this is the
//     plain SKP planner, bit-for-bit.
//   - KindAIMD — additive-decrease, multiplicative-increase, mirrored
//     from congestion control: λ is a brake, so a congested round
//     (utilisation ≥ 0.75, or any drop or deferral) sets λ·2 + 0.25 (the
//     additive kick lets λ leave zero) and each calm round subtracts 0.05.
//   - KindTargetUtil — an integral controller tracking a utilisation
//     setpoint: λ accumulates 2·(util − TargetUtil) each round, so
//     speculation is throttled exactly hard enough to hold the server at
//     the target.
//   - KindDelayGradient — adds 0.5 when the client's own demand queueing
//     delay rises round-over-round and subtracts 0.1 otherwise; it needs
//     no server-side signal at all.
//
// The gains are fixed; only the base price Lambda0 and the target-util
// setpoint are configurable. Every controller clamps λ to
// [Lambda0, maxLambda]: Lambda0 is the configured base price (the floor a
// calm system converges back to, which makes "no congestion ⇒ the
// static-λ plan" a provable property), and maxLambda = 8 bounds how hard
// speculation can be squeezed — at λ the cost-aware profit
// r·((1+λ)P − λ) admits only items with P > λ/(1+λ), so λ = 8 already
// restricts plans to candidates at ≥ 8/9 certainty.
package adaptive

import (
	"errors"
	"fmt"
)

// ErrBadConfig reports an invalid controller configuration.
var ErrBadConfig = errors.New("adaptive: bad config")

// Kind names a built-in λ controller.
type Kind string

// The built-in controllers.
const (
	KindStatic        Kind = "static"
	KindAIMD          Kind = "aimd"
	KindTargetUtil    Kind = "target-util"
	KindDelayGradient Kind = "delay-gradient"
)

// Kinds lists the built-in controllers in canonical order.
func Kinds() []Kind {
	return []Kind{KindStatic, KindAIMD, KindTargetUtil, KindDelayGradient}
}

// Feedback is the congestion signal one client observes at the start of a
// browsing round, before planning its prefetches. Utilisation and the
// deferral count come back from the shared server (schedsrv.Feedback);
// the demand delay and drop count are the client's own observations of
// the round that just ended.
type Feedback struct {
	Round        int     // 1-based round about to be planned
	Utilization  float64 // server sliding-window utilisation estimate
	QueuedDemand int     // demand requests queued at the server
	DemandDelay  float64 // own demand queueing delay last round (0 = served from cache)
	Dropped      int64   // own speculative submissions admission dropped since last round
	Deferred     int64   // server-wide speculative deferrals since last round
}

// congested reports whether the feedback signals an overloaded server to
// aimd: the utilisation estimate at or above congestUtil, or the
// admission controller actively refusing speculation.
func (fb Feedback) congested() bool {
	return fb.Utilization >= congestUtil || fb.Dropped > 0 || fb.Deferred > 0
}

// Controller maps the per-round feedback stream to the network-usage
// price λ the round's plan is solved with (core.Options.NetworkLambda).
// Lambda is called exactly once per round, in round order; it may carry
// state between calls but must be a pure function of the feedback stream.
type Controller interface {
	Name() string
	Lambda(fb Feedback) float64
}

// The controllers' fixed gains.
const (
	maxLambda   = 8    // clamp ceiling of every controller
	congestUtil = 0.75 // aimd: utilisation at/above which a round counts congested
	increase    = 2    // aimd: multiplicative λ factor on congestion (>= 1)
	kick        = 0.25 // aimd: additive λ bump on congestion, bootstraps λ off zero
	decrease    = 0.05 // aimd: additive λ decay per calm round
	gain        = 2    // target-util: integral gain on the utilisation error
	delayStep   = 0.5  // delay-gradient: additive λ increase when own demand delay rises
	delayDecay  = 0.1  // delay-gradient: additive λ decay otherwise
)

// Config parameterises a controller. The zero value is the static λ = 0
// controller — the plain SKP planner.
type Config struct {
	Kind       Kind    // controller; "" means KindStatic
	Lambda0    float64 // base λ and clamp floor, in [0, 8]
	TargetUtil float64 // target-util setpoint (0 = default 0.7; in (0, 1))
}

// withDefaults fills the zero-valued kind and setpoint.
func (cfg Config) withDefaults() Config {
	if cfg.Kind == "" {
		cfg.Kind = KindStatic
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.7
	}
	return cfg
}

// Validate checks the configuration (after defaulting). Checks are in
// positive form so NaN inputs are rejected rather than slipping past
// every comparison.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	known := false
	for _, k := range Kinds() {
		if c.Kind == k {
			known = true
			break
		}
	}
	switch {
	case !known:
		return fmt.Errorf("%w: unknown controller %q", ErrBadConfig, c.Kind)
	case !(c.Lambda0 >= 0):
		return fmt.Errorf("%w: lambda0 %v (need finite >= 0)", ErrBadConfig, c.Lambda0)
	case !(c.Lambda0 <= maxLambda):
		return fmt.Errorf("%w: lambda0 %v above max lambda %v", ErrBadConfig, c.Lambda0, maxLambda)
	case !(c.TargetUtil > 0 && c.TargetUtil < 1):
		return fmt.Errorf("%w: target utilisation %v outside (0, 1)", ErrBadConfig, c.TargetUtil)
	}
	return nil
}

// New builds the configured controller. Each client owns its own
// instance; controllers are not safe for shared use.
func New(cfg Config) (Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case KindStatic:
		return &static{cfg: cfg}, nil
	case KindAIMD:
		return &aimd{cfg: cfg, lambda: cfg.Lambda0}, nil
	case KindTargetUtil:
		return &targetUtil{cfg: cfg, lambda: cfg.Lambda0}, nil
	case KindDelayGradient:
		return &delayGradient{cfg: cfg, lambda: cfg.Lambda0}, nil
	}
	return nil, fmt.Errorf("%w: unknown controller %q", ErrBadConfig, cfg.Kind)
}

// clamp bounds λ to the [Lambda0, maxLambda] band.
func (cfg Config) clamp(lambda float64) float64 {
	if lambda < cfg.Lambda0 {
		return cfg.Lambda0
	}
	if lambda > maxLambda {
		return maxLambda
	}
	return lambda
}

// static ignores feedback: λ ≡ Lambda0, the PR 2 fixed-λ planner.
type static struct{ cfg Config }

func (s *static) Name() string { return string(KindStatic) }

func (s *static) Lambda(Feedback) float64 { return s.cfg.Lambda0 }

// aimd treats λ like a congestion-control brake: multiplicative increase
// (plus a bootstrap kick) on congested rounds, additive decrease on calm
// ones. For any fixed internal state the next λ is monotone
// non-decreasing in the observed utilisation — the step from λ−decrease
// to λ·increase+kick at congestUtil only ever goes up (increase >= 1).
type aimd struct {
	cfg    Config
	lambda float64
}

func (a *aimd) Name() string { return string(KindAIMD) }

func (a *aimd) Lambda(fb Feedback) float64 {
	if fb.congested() {
		a.lambda = a.lambda*increase + kick
	} else {
		a.lambda -= decrease
	}
	a.lambda = a.cfg.clamp(a.lambda)
	return a.lambda
}

// targetUtil is an integral controller on the utilisation error: λ
// accumulates gain·(util − TargetUtil) per round, throttling speculation
// exactly hard enough to hold the server at the setpoint. Below the
// setpoint the error is negative, so an idle system drains λ back to
// Lambda0.
type targetUtil struct {
	cfg    Config
	lambda float64
}

func (t *targetUtil) Name() string { return string(KindTargetUtil) }

func (t *targetUtil) Lambda(fb Feedback) float64 {
	t.lambda = t.cfg.clamp(t.lambda + gain*(fb.Utilization-t.cfg.TargetUtil))
	return t.lambda
}

// delayGradient watches only the client's own demand queueing delay: a
// round-over-round rise means this client's fetches are queueing behind
// the backlog, so it backs its speculation off; otherwise λ decays. It is
// the one controller that needs no server-side signal.
type delayGradient struct {
	cfg       Config
	lambda    float64
	prevDelay float64
	seen      bool
}

func (d *delayGradient) Name() string { return string(KindDelayGradient) }

func (d *delayGradient) Lambda(fb Feedback) float64 {
	rising := d.seen && fb.DemandDelay > d.prevDelay
	d.prevDelay = fb.DemandDelay
	d.seen = true
	if rising {
		d.lambda += delayStep
	} else {
		d.lambda -= delayDecay
	}
	d.lambda = d.cfg.clamp(d.lambda)
	return d.lambda
}
