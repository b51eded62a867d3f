package fleet

import (
	"errors"
	"sync"
	"time"
)

// Breaker states, in the order they appear in the
// simd_fleet_worker_breaker_state gauge.
const (
	breakerClosed   = 0 // healthy: requests flow
	breakerOpen     = 1 // tripped: requests fail fast until the cooldown ends
	breakerHalfOpen = 2 // probing: exactly one request in flight decides
)

// errBreakerOpen is returned by Worker.post when the circuit breaker is
// rejecting requests without touching the network. It is not a delivery
// failure: spooled results keep their attempt count when they hit it.
var errBreakerOpen = errors.New("fleet: circuit breaker open, coordinator presumed down")

// breaker is a per-worker circuit breaker over coordinator RPCs (see DESIGN
// §3.11). threshold consecutive failures open it; after cooldown it admits a
// single half-open probe whose outcome either closes it again or restarts
// the cooldown. It fails fast while open, so a dead coordinator costs a
// worker one clock read per RPC instead of a connect timeout per RPC.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // test clock; nil = time.Now

	state    int
	failures int       // consecutive failures while closed
	until    time.Time // when open, the end of the cooldown
	probing  bool      // when half-open, whether the probe slot is taken
	trips    int64     // closed→open transitions (metrics)
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

func (b *breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

// allow reports whether a request may proceed. In half-open state only one
// caller wins the probe slot; everyone else fails fast until the probe
// resolves via success or failure.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clock().Before(b.until) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a request the coordinator answered. Any answer — even an
// application-level rejection — proves the path is healthy, so it closes the
// breaker from any state. Returns true when this call healed an open or
// half-open breaker, so the worker can kick its spool flush immediately.
func (b *breaker) success() (healed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	healed = b.state != breakerClosed
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	return healed
}

// failure records an unanswered request (network error or 5xx). The
// threshold applies while closed; a half-open probe failure re-opens
// immediately.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	case breakerOpen:
		// A request admitted before the trip finished late; already open.
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.until = b.clock().Add(b.cooldown)
	b.failures = 0
	b.probing = false
	b.trips++
}

// snapshot returns (state, trips) for metrics.
func (b *breaker) snapshot() (state int, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}
