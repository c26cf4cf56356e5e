package flight

import (
	"sync/atomic"
	"testing"
	"time"

	"subsim/internal/obs/ring"
)

func TestWatchdogInvalidConfigs(t *testing.T) {
	if NewWatchdog(WatchdogConfig{}) != nil {
		t.Error("zero config must yield the nil (disabled) watchdog")
	}
	if NewWatchdog(WatchdogConfig{Window: time.Second}) != nil {
		t.Error("missing Progress must yield nil")
	}
	if NewWatchdog(WatchdogConfig{Progress: func() uint64 { return 0 }}) != nil {
		t.Error("missing Window must yield nil")
	}
	var w *Watchdog
	w.Start() // all nil-safe
	w.Stop()
	if w.Stalls() != 0 {
		t.Error("nil watchdog Stalls must be 0")
	}
	// Stop before Start on a live watchdog must not hang.
	live := NewWatchdog(WatchdogConfig{Window: time.Second, Progress: func() uint64 { return 0 }})
	live.Stop()
}

func TestWatchdogFiresOncePerEpisode(t *testing.T) {
	var progress atomic.Uint64
	fired := make(chan int64, 8)
	w := NewWatchdog(WatchdogConfig{
		Window:   40 * time.Millisecond,
		Poll:     5 * time.Millisecond, // floored to 10 ms internally
		Progress: progress.Load,
		OnStall:  func(idleNS int64) { fired <- idleNS },
	})
	if w == nil {
		t.Fatal("NewWatchdog returned nil for a valid config")
	}
	w.Start()
	w.Start() // second Start is a no-op
	defer w.Stop()

	var idle int64
	select {
	case idle = <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a flat progress counter")
	}
	if idle < int64(40*time.Millisecond) {
		t.Errorf("reported idle %s below the window", time.Duration(idle))
	}
	// Still stalled: the episode must not fire again.
	select {
	case <-fired:
		t.Fatal("watchdog fired twice inside one stall episode")
	case <-time.After(150 * time.Millisecond):
	}
	if w.Stalls() != 1 {
		t.Fatalf("Stalls = %d after one episode", w.Stalls())
	}
	// Progress resumes, then flatlines again: a second episode fires.
	progress.Add(1)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not re-arm after progress resumed")
	}
	if w.Stalls() != 2 {
		t.Errorf("Stalls = %d after two episodes", w.Stalls())
	}
}

func TestWatchdogInactiveNeverFires(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{
		Window:   20 * time.Millisecond,
		Progress: func() uint64 { return 7 },
		Active:   func() bool { return false },
		OnStall:  func(int64) { t.Error("watchdog fired while inactive") },
	})
	w.Start()
	time.Sleep(150 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
	if w.Stalls() != 0 {
		t.Errorf("Stalls = %d while inactive, want 0", w.Stalls())
	}
}

func TestWatchdogActivationArmsFresh(t *testing.T) {
	// The idle clock only accumulates inside active phases: if the
	// workload goes active with flat progress, the window starts counting
	// from activation, not from watchdog start.
	var active atomic.Bool
	fired := make(chan struct{}, 1)
	clock := ring.WallClock()
	w := NewWatchdog(WatchdogConfig{
		Window:   50 * time.Millisecond,
		Clock:    clock,
		Progress: func() uint64 { return 0 },
		Active:   active.Load,
		OnStall:  func(int64) { fired <- struct{}{} },
	})
	w.Start()
	defer w.Stop()
	time.Sleep(120 * time.Millisecond) // well past the window, but idle
	select {
	case <-fired:
		t.Fatal("fired before activation")
	default:
	}
	start := clock()
	active.Store(true)
	select {
	case <-fired:
		if waited := clock() - start; waited < int64(40*time.Millisecond) {
			t.Errorf("fired %s after activation, want a full fresh window", time.Duration(waited))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("never fired after activation")
	}
}
