package service

// Tests for helping: idle scheduler workers run a running job's seeds in
// parallel, yet results, journal records and seed events stay in spec order
// and bit-identical to a one-worker run; a newer job never waits behind
// another job's helpers; concurrent publishers keep each stream's seqs
// increasing, and a lagging one loses round events, not seed events; a
// failing seed names its job; and recovery restores a
// checkpoint that belongs to a seed after the first uncommitted one.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"noisypull"
	"noisypull/internal/rng"
)

// gateProto wraps a protocol so that agent 0 of every seed checks in at its
// first Observe and then waits for release. A test thereby sees which seeds
// are in flight together, and no seed gets past round 1 before the test
// lets it. The wrapper hides the inner protocol's kernel, so every seed
// runs the per-agent path whatever the worker count.
type gateProto struct {
	noisypull.Protocol
	arrived chan struct{} // one send per seed; holds more than any test's seeds
	release chan struct{}
	once    sync.Once
}

func newGate(inner noisypull.Protocol) *gateProto {
	return &gateProto{Protocol: inner, arrived: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateProto) open() { g.once.Do(func() { close(g.release) }) }

// await waits for n more seeds to check in, failing the test on timeout.
func (g *gateProto) await(t *testing.T, n int, what string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-g.arrived:
		case <-timeout:
			t.Fatalf("%s: only %d of %d seeds in flight after 10s", what, i, n)
		}
	}
}

func (g *gateProto) NewAgent(id int, role noisypull.Role, env noisypull.Env) noisypull.Agent {
	a := g.Protocol.NewAgent(id, role, env)
	if id != 0 {
		return a
	}
	return &gateAgent{Agent: a, g: g}
}

type gateAgent struct {
	noisypull.Agent
	g      *gateProto
	passed bool
}

func (a *gateAgent) Observe(counts []int, r *rng.Stream) {
	if !a.passed {
		a.passed = true
		a.g.arrived <- struct{}{}
		<-a.g.release
	}
	a.Agent.Observe(counts, r)
}

// journaledSeeds reads the seed records of one job from a journal, in file
// order.
func journaledSeeds(t *testing.T, dir, id string) (results []SeedResult, seqs []uint64) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.T == recSeed && rec.Job == id {
			results = append(results, *rec.Result)
			seqs = append(seqs, rec.Seq)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results, seqs
}

// helpedRun is what one job leaves behind: its final results, its journaled
// seed records and its streamed seed events.
type helpedRun struct {
	results, journaled, streamed []SeedResult
}

// runGated runs spec as the only job of a journal-backed service with the
// given worker count, streaming it from before its first round.
func runGated(t *testing.T, workers int, spec JobSpec) helpedRun {
	t.Helper()
	gate := newGate(noisypull.NewSourceFilter())
	testProtocols = map[string]noisypull.Protocol{"test-gate": gate}
	defer func() { testProtocols = nil }()
	dir := t.TempDir()
	s := openJournaled(t, dir, Config{Workers: workers})
	defer s.Close()
	defer gate.open()

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	gate.open()

	var run helpedRun
	var last uint64
	for ev := range ch {
		if ev.Seq <= last {
			t.Fatalf("Workers %d: stream delivered seq %d after %d", workers, ev.Seq, last)
		}
		last = ev.Seq
		if ev.Type == "seed" {
			run.streamed = append(run.streamed, *ev.Result)
		}
	}
	final := waitState(t, s, st.ID, StateDone)
	run.results = final.Results
	var seqs []uint64
	run.journaled, seqs = journaledSeeds(t, dir, st.ID)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("Workers %d: journaled seed seqs %v not increasing", workers, seqs)
		}
	}
	return run
}

// TestHelpingKeepsSpecOrderAndBitIdentity: a 16-seed job on four workers
// (its owner plus three helpers) yields results, journaled seed records and
// streamed seed events in spec order, all identical to the same job on one
// worker.
func TestHelpingKeepsSpecOrderAndBitIdentity(t *testing.T) {
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(101 + 7*i)
	}
	spec := quickSpec(seeds...)
	spec.Protocol = "test-gate"

	one := runGated(t, 1, spec)
	four := runGated(t, 4, spec)

	for name, got := range map[string][]SeedResult{
		"results": one.results, "journaled": one.journaled, "streamed": one.streamed,
	} {
		if len(got) != len(seeds) {
			t.Fatalf("Workers 1 %s: %d seeds, want %d", name, len(got), len(seeds))
		}
		for i, sr := range got {
			if sr.Seed != seeds[i] {
				t.Fatalf("Workers 1 %s[%d] is seed %d, want %d (spec order)", name, i, sr.Seed, seeds[i])
			}
		}
	}
	for name, pair := range map[string][2][]SeedResult{
		"results":   {four.results, one.results},
		"journaled": {four.journaled, one.journaled},
		"streamed":  {four.streamed, one.streamed},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("Workers 4 %s differ from Workers 1:\n 4: %+v\n 1: %+v", name, pair[0], pair[1])
		}
	}
}

// TestHelpersRunInParallelAndNewJobsDoNotWait: on two workers, two seeds of
// one job are in flight at once (the owner and a helper), and a job
// submitted meanwhile starts its first seed while both are still held.
func TestHelpersRunInParallelAndNewJobsDoNotWait(t *testing.T) {
	a, b := newGate(noisypull.VoterBaseline), newGate(noisypull.VoterBaseline)
	testProtocols = map[string]noisypull.Protocol{"test-gate-a": a, "test-gate-b": b}
	defer func() { testProtocols = nil }()
	s := New(Config{Workers: 2})
	defer s.Close()
	defer a.open()
	defer b.open()

	spec := JobSpec{N: 200, H: 1, Sources1: 1, Delta: 0.2, MaxRounds: 50, Seeds: []uint64{1, 2, 3, 4, 5, 6}}
	spec.Protocol = "test-gate-a"
	ja, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	a.await(t, 2, "first job")

	spec.Protocol, spec.Seeds = "test-gate-b", []uint64{7, 8}
	jb, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b.await(t, 1, "second job, while the first job's owner and helper are held")

	a.open()
	b.open()
	for _, id := range []string{ja.ID, jb.ID} {
		st := waitState(t, s, id, StateDone)
		for i, sr := range st.Results {
			if want := st.Spec.Seeds[i]; sr.Seed != want {
				t.Fatalf("job %s result %d is seed %d, want %d", id, i, sr.Seed, want)
			}
		}
	}
	if got := s.busy.Load(); got != 0 {
		t.Fatalf("busy = %d after both jobs finished, want 0", got)
	}
}

// TestPublishKeepsSeqOrder: with several goroutines publishing at once, one
// subscriber receives strictly increasing seqs.
func TestPublishKeepsSeqOrder(t *testing.T) {
	j := &job{state: StateRunning}
	ch, unsub := j.subscribe()
	defer unsub()
	const publishers, each = 4, 5000
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.publish(Event{Type: "round", Round: i})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var last uint64
	received := 0
	check := func(ev Event) {
		if ev.Seq <= last {
			t.Fatalf("seq %d delivered after %d", ev.Seq, last)
		}
		last = ev.Seq
		received++
	}
	for {
		select {
		case ev := <-ch:
			check(ev)
			continue
		case <-done:
		}
		break
	}
	for len(ch) > 0 {
		check(<-ch)
	}
	if received == 0 || j.seq.Load() != publishers*each {
		t.Fatalf("received %d events, seq %d, want some events and seq %d", received, j.seq.Load(), publishers*each)
	}
}

// TestSlowSubscriberLosesRoundsNotSeeds: a subscriber that reads nothing
// while a flood of round events arrives still receives every seed event
// published after the flood.
func TestSlowSubscriberLosesRoundsNotSeeds(t *testing.T) {
	j := &job{state: StateRunning}
	ch, unsub := j.subscribe()
	defer unsub()
	for i := 0; i < 2*subscriberBuffer; i++ {
		j.publish(Event{Type: "round", Round: i})
	}
	const seeds = roundHeadroom
	for i := 0; i < seeds; i++ {
		j.publish(Event{Type: "seed", Seed: uint64(i)})
	}
	rounds, got := 0, 0
	for len(ch) > 0 {
		switch ev := <-ch; ev.Type {
		case "round":
			rounds++
		case "seed":
			if ev.Seed != uint64(got) {
				t.Fatalf("seed event %d carries seed %d", got, ev.Seed)
			}
			got++
		}
	}
	if got != seeds || rounds != subscriberBuffer-roundHeadroom {
		t.Fatalf("received %d round and %d seed events, want %d and %d", rounds, got, subscriberBuffer-roundHeadroom, seeds)
	}
}

// TestLocalSeedFailureNamesJobAndSeed: a seed's panic fails the job with an
// error naming the job and the seed, on one worker and with helpers, and
// the daemon keeps serving.
func TestLocalSeedFailureNamesJobAndSeed(t *testing.T) {
	testProtocols = map[string]noisypull.Protocol{"test-panic": panicProto{}}
	defer func() { testProtocols = nil }()
	boom := JobSpec{N: 50, H: 4, Sources1: 1, Delta: 0.1, Protocol: "test-panic", MaxRounds: 100, Seeds: []uint64{4, 5, 6, 7}}

	s1 := New(Config{Workers: 1})
	defer s1.Close()
	st, err := s1.Submit(boom)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s1, st.ID)
	if want := fmt.Sprintf("job %s seed 4 (1/4): panic in protocol/engine: deliberate test panic", st.ID); st.State != StateFailed || st.Error != want {
		t.Fatalf("one worker: state %s error %q, want failed %q", st.State, st.Error, want)
	}

	s4 := New(Config{Workers: 4})
	defer s4.Close()
	st, err = s4.Submit(boom)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, s4, st.ID)
	named := regexp.MustCompile(`^job ` + st.ID + ` seed [4-7] \([1-4]/4\): panic in protocol/engine: deliberate test panic$`)
	if st.State != StateFailed || !named.MatchString(st.Error) {
		t.Fatalf("four workers: state %s error %q, want failed matching %s", st.State, st.Error, named)
	}
	after, err := s4.Submit(quickSpec(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s4, after.ID, StateDone)
}

// TestRecoveryRestoresNonHeadCheckpoint: with seeds in flight together, the
// journal's last checkpoint can belong to a seed after the first
// uncommitted one. Recovery over such a journal (seed 5 committed, seed 7
// never checkpointed, seed 9 checkpointed at round 100) must restore seed
// 9's checkpoint and finish identical to an uninterrupted run.
func TestRecoveryRestoresNonHeadCheckpoint(t *testing.T) {
	spec := resumableSpec(5, 7, 9)
	spec.normalize()
	cfg, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}

	control := New(Config{Workers: 1})
	defer control.Close()
	st, err := control.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, control, st.ID, StateDone).Results

	cfg.Seed, cfg.Workers = 9, 1
	runner, err := noisypull.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap []byte
	runner.SetCheckpoint(100, func(round int, data []byte) {
		if snap == nil {
			snap = append([]byte(nil), data...)
			cancel()
		}
	})
	if _, err := runner.RunContext(ctx); err == nil {
		t.Fatal("interrupted control run unexpectedly completed")
	}
	runner.Close()

	dir := t.TempDir()
	jl, err := openJournal(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.appendSubmit("j-000001", &spec)
	jl.appendState("j-000001", StateRunning)
	jl.appendSeed("j-000001", 5, &want[0], 401)
	jl.appendCheckpoint("j-000001", 9, 100, snap, 602)
	jl.close()

	var mu sync.Mutex
	var logs []string
	s := openJournaled(t, dir, Config{Workers: 2, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	defer s.Close()
	got := waitState(t, s, "j-000001", StateDone).Results
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered results %+v, uninterrupted %+v", got, want)
	}
	mu.Lock()
	log := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(log, "job j-000001: seed 9 resumed from its checkpoint at round 100") || strings.Contains(log, "restore failed") {
		t.Fatalf("seed 9's checkpoint was not restored; log:\n%s", log)
	}
}
