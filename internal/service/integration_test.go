package service_test

// End-to-end integration test for the simd daemon, exercising the full
// acceptance path over real HTTP: a random port, saturating submissions that
// draw queue-full backpressure, NDJSON round streaming, mid-run cancellation,
// and a SIGTERM-driven graceful drain.

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"

	"noisypull"
	"noisypull/internal/service"
)

// errEnoughRounds aborts a progress stream once the test has seen what it
// needs.
var errEnoughRounds = errors.New("saw enough rounds")

func TestDaemonEndToEnd(t *testing.T) {
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	d := service.NewDaemon(service.DaemonConfig{
		Addr: "127.0.0.1:0",
		Service: service.Config{
			QueueCapacity: 4,
			Workers:       2,
			ResultTTL:     time.Hour,
		},
		DrainTimeout: 500 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(sigCtx) }()

	client := service.NewClient(d.BaseURL())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: a quick job runs to done over HTTP, and its per-seed results
	// are bit-identical to direct noisypull.Run calls (the scheduler's runner
	// leasing must not perturb determinism).
	quick := service.JobSpec{
		N: 150, H: 16, Sources1: 2, Sources0: 0,
		Delta: 0.2, Protocol: "sf", Seeds: []uint64{11, 12},
	}
	st, err := client.Submit(ctx, quick)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := client.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != service.StateDone || len(fin.Results) != 2 {
		t.Fatalf("quick job finished as %s with %d results", fin.State, len(fin.Results))
	}
	nm, err := noisypull.UniformNoise(2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range fin.Results {
		want, err := noisypull.Run(noisypull.Config{
			N: 150, H: 16, Sources1: 2, Sources0: 0,
			Noise: nm, Protocol: noisypull.NewSourceFilter(),
			Seed: sr.Seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Rounds != want.Rounds || sr.Converged != want.Converged ||
			sr.FinalCorrect != want.FinalCorrect || sr.FirstAllCorrect != want.FirstAllCorrect {
			t.Fatalf("seed %d over HTTP %+v != direct run %+v", sr.Seed, sr, want)
		}
	}

	// Phase 2: saturate the daemon. 8 concurrent endless submissions against
	// queue capacity 4 and 2 workers: at most 6 can be in flight or queued,
	// so at least one (in fact two) must be rejected with 429 → ErrQueueFull.
	endless := func(seed uint64) service.JobSpec {
		return service.JobSpec{
			N: 250, H: 1, Sources1: 1, Sources0: 0,
			Delta: 0.2, Protocol: "voter",
			MaxRounds: 1 << 30, Seeds: []uint64{seed},
		}
	}
	var (
		mu       sync.Mutex
		accepted []string
		rejected int
		wg       sync.WaitGroup
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			st, err := client.Submit(ctx, endless(seed))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted = append(accepted, st.ID)
			case errors.Is(err, service.ErrQueueFull):
				rejected++
			default:
				t.Errorf("submit %d: unexpected error %v", seed, err)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if rejected < 1 {
		t.Fatalf("no submission hit queue-full backpressure (accepted %d)", len(accepted))
	}
	if len(accepted) < 4 {
		t.Fatalf("only %d submissions accepted, queue capacity is 4", len(accepted))
	}
	t.Logf("saturation: %d accepted, %d rejected with 429", len(accepted), rejected)

	// Pick two distinct running jobs: one to stream, one to cancel mid-run.
	isAccepted := make(map[string]bool, len(accepted))
	for _, id := range accepted {
		isAccepted[id] = true
	}
	var streamID, cancelID string
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		jobs, err := client.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var running []string
		for _, j := range jobs {
			if isAccepted[j.ID] && j.State == service.StateRunning {
				running = append(running, j.ID)
			}
		}
		if len(running) >= 2 {
			streamID, cancelID = running[0], running[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if streamID == "" {
		t.Fatal("fewer than 2 accepted jobs ever ran concurrently")
	}

	// Phase 3: stream round progress from a running job. The job is endless,
	// so the callback aborts the stream once enough rounds have been seen.
	rounds := 0
	_, err = client.Stream(ctx, streamID, func(ev service.Event) error {
		if ev.Type == "round" {
			rounds++
			if rounds >= 25 {
				return errEnoughRounds
			}
		}
		return nil
	})
	if !errors.Is(err, errEnoughRounds) {
		t.Fatalf("stream ended with %v after %d round events", err, rounds)
	}

	// Reattach a full stream: its terminal status line must arrive when the
	// drain cancels the job, proving streams end cleanly at shutdown.
	finalCh := make(chan *service.JobStatus, 1)
	streamFail := make(chan error, 1)
	go func() {
		st, err := client.Stream(context.Background(), streamID, nil)
		if err != nil {
			streamFail <- err
			return
		}
		finalCh <- st
	}()

	// Phase 4: cancel a different job mid-run and observe the cancelled state.
	if _, err := client.Cancel(ctx, cancelID); err != nil {
		t.Fatal(err)
	}
	cst, err := client.Wait(ctx, cancelID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != service.StateCancelled {
		t.Fatalf("cancelled job finished as %s", cst.State)
	}

	// Phase 5: SIGTERM the daemon. Endless jobs are still in flight, so the
	// 500ms drain deadline must force-cancel them and Run must report that.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Run returned %v, want DeadlineExceeded from the forced drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}

	// The drained service holds only terminal jobs and refuses new work.
	for state, n := range d.Service().Jobs() {
		if !state.Terminal() && n > 0 {
			t.Errorf("%d job(s) left in non-terminal state %s after drain", n, state)
		}
	}
	if _, err := d.Service().Submit(quick); !errors.Is(err, service.ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}

	// And the background stream observed its job's terminal status.
	select {
	case st := <-finalCh:
		if st == nil || st.State != service.StateCancelled {
			t.Fatalf("streamed job's terminal status = %+v, want cancelled", st)
		}
	case err := <-streamFail:
		t.Fatalf("background stream failed: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("background stream never delivered a terminal status line")
	}
}
