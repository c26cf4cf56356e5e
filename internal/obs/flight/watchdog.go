package flight

import (
	"sync"
	"sync/atomic"
	"time"

	"subsim/internal/obs/ring"
)

// WatchdogConfig configures a stall watchdog. Window is the only
// required field.
type WatchdogConfig struct {
	// Window is how long progress may stand still before OnStall fires.
	Window time.Duration
	// Poll is the check cadence (default Window/8, floored at 10 ms).
	Poll time.Duration
	// Clock supplies nanosecond timestamps for idle measurement (nil
	// installs ring.WallClock). Injectable so the reported idle
	// durations are deterministic under a fake clock; the poll ticker
	// itself always runs on real time.
	Clock func() int64
	// Progress returns a value that changes whenever the watched work
	// advances — typically journal events written plus RR sets
	// generated. Required.
	Progress func() uint64
	// Active reports whether a phase worth watching is in flight; while
	// it returns false the watchdog idles without arming. Nil means
	// always active.
	Active func() bool
	// OnStall runs on the watchdog goroutine when the window elapses
	// with no progress; idleNS is how long progress has been flat. It
	// fires once per stall episode: the watchdog re-arms only after
	// progress moves again.
	OnStall func(idleNS int64)
}

// Watchdog fires OnStall when the watched progress value stands still
// for longer than the configured window while the workload is active.
// One stall episode fires exactly once — the watchdog re-arms when
// progress resumes — so a wedged run produces one bundle, not one per
// poll tick. A nil Watchdog is the disabled instrument.
type Watchdog struct {
	cfg     WatchdogConfig
	clock   func() int64
	stalls  atomic.Int64
	started atomic.Bool
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
}

// NewWatchdog validates cfg and returns an unstarted watchdog, or nil
// when cfg cannot watch anything (no window or no progress source) —
// the nil watchdog being the disabled instrument, callers need no
// special cases.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Window <= 0 || cfg.Progress == nil {
		return nil
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Window / 8
	}
	if cfg.Poll < 10*time.Millisecond {
		cfg.Poll = 10 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = ring.WallClock()
	}
	return &Watchdog{
		cfg:   cfg,
		clock: clock,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Stalls returns how many stall episodes have fired (0 for nil).
func (w *Watchdog) Stalls() int64 {
	if w == nil {
		return 0
	}
	return w.stalls.Load()
}

// Start launches the watchdog goroutine. Nil-safe; call Stop to halt.
// A second Start is a no-op.
func (w *Watchdog) Start() {
	if w == nil || !w.started.CompareAndSwap(false, true) {
		return
	}
	go w.loop()
}

// Stop halts the watchdog and waits for its goroutine to exit. Nil-safe
// and idempotent; safe to call even if Start never ran.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.once.Do(func() { close(w.stop) })
	if w.started.Load() {
		<-w.done
	}
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Poll)
	defer tick.Stop()

	last := w.cfg.Progress()
	lastChange := w.clock()
	armed, active := true, true
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		if w.cfg.Active != nil && !w.cfg.Active() {
			// Nothing worth watching: a stall can only accumulate inside
			// an active phase.
			active = false
			continue
		}
		now := w.clock()
		if !active {
			// First tick of an active phase: the window starts here, at a
			// clock read taken after the phase was seen active, so a
			// delayed tick can only start it late, never before activation.
			active, armed = true, true
			last, lastChange = w.cfg.Progress(), now
			continue
		}
		if p := w.cfg.Progress(); p != last {
			last = p
			lastChange = now
			armed = true
			continue
		}
		if idle := now - lastChange; armed && idle >= int64(w.cfg.Window) {
			armed = false
			w.stalls.Add(1)
			if w.cfg.OnStall != nil {
				w.cfg.OnStall(idle)
			}
		}
	}
}
