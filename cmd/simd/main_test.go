package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer guards the run() output against the daemon's logger goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestVersionFlag(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "simd") {
		t.Fatalf("version output %q missing binary name", out.String())
	}
}

func TestCoordinatorAndJoinAreExclusive(t *testing.T) {
	var out syncBuffer
	err := run(context.Background(), []string{"-coordinator", "-join", "http://x:1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion error", err)
	}
}

func TestChaosSpecRequiresFleetMode(t *testing.T) {
	var out syncBuffer
	err := run(context.Background(), []string{"-chaos-spec", "seed=1,drop=0.5"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-coordinator or -join") {
		t.Fatalf("err = %v, want fleet-mode requirement", err)
	}
}

func TestChaosSpecParseErrorIsReported(t *testing.T) {
	var out syncBuffer
	err := run(context.Background(), []string{"-coordinator", "-chaos-spec", "drop=two"}, &out)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("err = %v, want chaos spec parse error", err)
	}
}

func TestBadFlagReturnsError(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// Usage lists the fleet flags alongside the core ones.
	for _, want := range []string{"-coordinator", "-join", "-lease-seeds", "-journal-dir", "-chaos-spec", "-lease-attempts"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("usage missing %s:\n%s", want, out.String())
		}
	}
}

// startRun launches run() on a random port and waits for the startup line.
func startRun(t *testing.T, args []string) (*syncBuffer, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(out.String(), "listening on") {
			return &out, cancel, errc
		}
		select {
		case err := <-errc:
			cancel()
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	t.Fatalf("daemon never reported listening:\n%s", out.String())
	return nil, nil, nil
}

func stopRun(t *testing.T, cancel context.CancelFunc, errc chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
}

func TestStartupLineSingleMode(t *testing.T) {
	out, cancel, errc := startRun(t, nil)
	if !strings.Contains(out.String(), "mode=single") ||
		!strings.Contains(out.String(), "journal-dir=(in-memory)") ||
		!strings.Contains(out.String(), "checkpoint-rounds=0") {
		t.Errorf("startup line incomplete:\n%s", out.String())
	}
	stopRun(t, cancel, errc)
}

func TestStartupLineCoordinatorMode(t *testing.T) {
	dir := t.TempDir()
	out, cancel, errc := startRun(t, []string{"-coordinator", "-journal-dir", dir, "-checkpoint-rounds", "50"})
	if !strings.Contains(out.String(), "mode=coordinator") ||
		!strings.Contains(out.String(), "journal-dir="+dir) ||
		!strings.Contains(out.String(), "checkpoint-rounds=50") {
		t.Errorf("startup line incomplete:\n%s", out.String())
	}
	stopRun(t, cancel, errc)
}

func TestStartupLineWorkerMode(t *testing.T) {
	// The coordinator URL is unreachable; the worker retries registration in
	// the background, which must not block daemon startup or shutdown.
	out, cancel, errc := startRun(t, []string{"-join", "http://127.0.0.1:1", "-node-id", "w0"})
	if !strings.Contains(out.String(), "mode=worker") {
		t.Errorf("startup line incomplete:\n%s", out.String())
	}
	stopRun(t, cancel, errc)
}

// TestFlagModeRejections: a mode-specific flag set explicitly in a mode
// that ignores it is refused before the daemon starts, even at its default
// value.
func TestFlagModeRejections(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-node-id", "w0"}, "-node-id names a worker: it requires -join"},
		{[]string{"-coordinator", "-worker-slots", "2"}, "-worker-slots sizes a worker: it requires -join"},
		{[]string{"-join", "http://127.0.0.1:1", "-verify-seeds", "0"}, "-verify-seeds tunes lease cutting: it requires -coordinator"},
		{[]string{"-join", "http://127.0.0.1:1", "-lease-seeds", "4"}, "-lease-seeds tunes lease cutting: it requires -coordinator"},
		{[]string{"-lease-ttl", "2s"}, "-lease-ttl tunes lease expiry: it requires -coordinator"},
		{[]string{"-lease-attempts", "3"}, "-lease-attempts tunes lease expiry: it requires -coordinator"},
		{[]string{"-join", "http://127.0.0.1:1", "-node-ttl", "2s"}, "-node-ttl tunes worker liveness: it requires -coordinator"},
		{[]string{"-fleet-poll", "50ms"}, "-fleet-poll is advertised to workers by the coordinator: it requires -coordinator"},
		{[]string{"-join", "http://127.0.0.1:1", "-quarantine-probation", "1m"}, "-quarantine-probation tunes worker quarantine: it requires -coordinator"},
		{[]string{"-coordinator", "-lie-spec", "seed=1,flip=1"}, "-lie-spec makes a worker Byzantine: it requires -join"},
		{[]string{"-fleet-secret", "s"}, "-fleet-secret authenticates fleet RPCs: it requires -coordinator or -join"},
		{[]string{"-checkpoint-rounds", "50"}, "-checkpoint-rounds journals engine checkpoints: it requires -journal-dir"},
	}
	for _, tc := range cases {
		var out syncBuffer
		err := run(context.Background(), tc.args, &out)
		if err == nil || err.Error() != tc.want {
			t.Errorf("run(%q) = %v, want %q", tc.args, err, tc.want)
		}
	}
}
