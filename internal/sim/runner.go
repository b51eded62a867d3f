package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"noisypull/internal/faults"
	"noisypull/internal/noise"
	"noisypull/internal/rng"
)

// Runner executes one configured simulation. Create it with New (synchronous
// rounds) or NewAsync (asynchronous activations), run it with Run, and rewind
// it with Reset to run further trials over the same allocations. All
// buffers, RNG streams, alias tables, and worker goroutines are provisioned
// at construction, so steady-state rounds allocate nothing and spawn
// nothing.
type Runner struct {
	cfg     Config
	env     Env
	agents  []Agent
	streams []rng.Stream
	channel *noise.Channel // effective channel: Noise composed with Artificial
	effRows [][]float64    // effective matrix rows, for mixture building
	// noiseEpoch counts effRows repoints (noise faults, Reset); the
	// vectorized neighborhood-law memos key their validity on it.
	noiseEpoch uint64
	backend    Backend
	workers    int
	correct    int // the correct opinion (plurality source preference)

	// Per-round shared state, written only at barriers.
	needDisplays bool      // topology and async runs need the display vector
	displays     []int     // symbol displayed by each agent this round (live, async)
	counts       []int     // population display counts per symbol
	probs        []float64 // counts as float64, reused as multinomial weights
	mixW         []float64 // weights scratch for mix
	mix          rng.Alias // complete-graph exact: display→observation mixture

	scratch []workerScratch
	pool    *pool
	ce      *countsEngine // non-nil iff backend == BackendCounts
	ran     bool          // Run consumed since the last New/Reset

	// Vectorized struct-of-arrays path (see vector.go). pop is non-nil iff
	// the configuration is vec-eligible and the protocol supplied a
	// population; agents/streams stay nil then. chunkStreams holds one
	// persistent RNG stream per fixed-size chunk; binDist and vecObs are
	// the per-round observation law, rebuilt at every Phase A barrier.
	pop          VecPopulation
	chunkStreams []rng.Stream
	numChunks    int
	binDist      rng.BinomialDist
	multDist     rng.MultinomialDist // complete graph, alphabet > 2
	vecQ         []float64           // per-symbol observation law scratch
	vecNbr       *vecNbrObs          // graph topology: per-neighborhood laws
	vecObs       VecObs

	// Fault-injection runtime (nil without a schedule). Noise faults swap
	// channel/effRows mid-run; baseEff/baseChannel keep the configured
	// channel for Reset, and curNoise tracks the communication-layer matrix
	// in effect (drift starts from its level). curRound is the round being
	// executed, written at the round barrier (crash checks read it).
	fs          *faultState
	baseEff     *noise.Matrix
	baseChannel *noise.Channel
	curNoise    *noise.Matrix
	curRound    int

	// Checkpoint/resume bookkeeping, updated at every round barrier:
	// completedRound counts fully executed rounds, streak is the current
	// all-correct streak, firstAll the tentative Result.FirstAllCorrect, and
	// lastCorrect the correct-opinion count after the last completed round.
	// Snapshot reads them; Restore seeds them so a resumed run continues the
	// trajectory exactly.
	completedRound int
	streak         int
	firstAll       int
	lastCorrect    int

	// Asynchronous schedule (NewAsync, see async.go): sched picks the
	// activating agent, live is the current correct-opinion count, and
	// initErr holds an out-of-alphabet initial display for New and
	// RunContext to report.
	async   bool
	sched   rng.Stream
	live    int
	initErr error
}

// workerScratch is the preallocated private state of one worker: its agent
// range, Phase A count shard, and Phase B observation buffers. Buffers are
// separate allocations (padded to a cache line) so parallel workers do not
// false-share.
type workerScratch struct {
	lo, hi   int
	shard    []int // Phase A per-symbol display counts over [lo, hi)
	sampled  []int // aggregate backend: multinomial sample buffer
	observed []int // per-agent observation counts handed to Observe
	nbrCnt   []int // topology: neighborhood display counts
	nbrW     []float64
	nbrMix   rng.Alias // topology: per-neighborhood observation mixture
	partial  int       // Phase B correct-opinion count over [lo, hi)
	err      error     // first Phase A protocol violation, if any
}

// New validates cfg, instantiates the population (assigning roles and
// applying any adversarial corruption), provisions all per-round scratch and
// the persistent worker pool, and returns a ready Runner.
func New(cfg Config) (*Runner, error) { return newRunner(cfg, false) }

// newRunner is the constructor behind New and NewAsync; async selects the
// asynchronous activation schedule.
func newRunner(cfg Config, async bool) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if async {
		if err := checkAsync(&cfg); err != nil {
			return nil, err
		}
	}
	backend := cfg.Backend
	if backend == BackendAuto {
		if cfg.H <= autoExactLimit || cfg.Topology != nil {
			backend = BackendExact
		} else {
			backend = BackendAggregate
		}
	}
	// Fold the artificial channel (Theorem 8) into the communication channel
	// once: a sample pushed through N and then P is distributed exactly as
	// one pushed through N·P, so the hot loops apply a single composed
	// channel instead of two. The composed matrix and its alias tables are
	// immutable, so runners with content-equal channels (RunBatch fleets,
	// service jobs) share one instance from a process-wide cache.
	eff, ch, err := noise.SharedChannel(cfg.Noise, cfg.Artificial)
	if err != nil {
		return nil, fmt.Errorf("sim: building noise channel: %w", err)
	}

	env := cfg.Env()
	d := env.Alphabet

	if backend == BackendCounts {
		// Countable populations carry no per-agent state: skip agent slabs,
		// per-agent streams, worker scratch, and the pool entirely, so a
		// counts runner for n = 10⁹ costs O(K + |Σ|) memory.
		ce, err := newCountsEngine(cfg.Protocol.(CountableProtocol), env)
		if err != nil {
			return nil, err
		}
		r := &Runner{
			cfg:     cfg,
			env:     env,
			channel: ch,
			effRows: make([][]float64, d),
			backend: backend,
			workers: 1,
			correct: cfg.CorrectOpinion(),
			ce:      ce,
		}
		for sigma := 0; sigma < d; sigma++ {
			r.effRows[sigma] = eff.Row(sigma)
		}
		if cfg.Faults != nil {
			r.baseEff, r.baseChannel, r.curNoise = eff, ch, cfg.Noise
			r.fs = newFaultState(&cfg, backend)
		}
		r.initPopulation()
		return r, nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.N {
		workers = cfg.N
	}
	if async {
		workers = 1
	}

	// Vectorized fast path: eligible configs whose protocol supplies a
	// struct-of-arrays population skip per-agent allocation entirely.
	var pop VecPopulation
	if vp, ok := cfg.Protocol.(VecProtocol); ok && !async && vecEligible(&cfg, backend) {
		pop = vp.NewVecPopulation(VecSpec{
			Env:        env,
			Sources1:   cfg.Sources1,
			Sources0:   cfg.Sources0,
			Correct:    cfg.CorrectOpinion(),
			Corruption: cfg.Corruption,
		})
	}
	if pop != nil && !vecCompatibleFaults(cfg.Faults, pop) {
		// The schedule rewrites individual agent state and this population
		// offers no VecFaultPopulation hooks: fall back to the scalar path.
		pop = nil
	}
	numChunks := 0
	if pop != nil {
		numChunks = numVecChunks(cfg.N)
		if workers > numChunks {
			workers = numChunks
		}
	}

	r := &Runner{
		cfg:          cfg,
		env:          env,
		channel:      ch,
		effRows:      make([][]float64, d),
		backend:      backend,
		workers:      workers,
		correct:      cfg.CorrectOpinion(),
		needDisplays: async || (cfg.Topology != nil && pop == nil),
		counts:       make([]int, d),
		probs:        make([]float64, d),
		mixW:         make([]float64, d),
		scratch:      make([]workerScratch, workers),
		pop:          pop,
		numChunks:    numChunks,
		async:        async,
	}
	if pop != nil {
		r.chunkStreams = make([]rng.Stream, numChunks)
	} else {
		r.streams = make([]rng.Stream, cfg.N)
	}
	for sigma := 0; sigma < d; sigma++ {
		r.effRows[sigma] = eff.Row(sigma)
	}
	if pop != nil {
		if cfg.Topology != nil {
			// The neighborhood laws alias r.effRows, so mid-run noise faults
			// (which repoint its entries in place) propagate automatically.
			r.vecNbr = newVecNbrObs(cfg.Topology, r.effRows, d, cfg.H, numChunks)
		} else if d > 2 {
			r.vecQ = make([]float64, d)
		}
	}
	if r.needDisplays {
		r.displays = make([]int, cfg.N)
	}
	// dPad rounds buffer lengths up to a cache line so the heavily written
	// per-worker shards of adjacent workers never share one.
	dPad := (d + 7) &^ 7
	chunk := (cfg.N + workers - 1) / workers
	for w := range r.scratch {
		s := &r.scratch[w]
		s.lo = w * chunk
		s.hi = s.lo + chunk
		if s.hi > cfg.N {
			s.hi = cfg.N
		}
		if s.lo > cfg.N {
			s.lo = cfg.N
		}
		s.shard = make([]int, dPad)[:d]
		s.sampled = make([]int, dPad)[:d]
		s.observed = make([]int, dPad)[:d]
		if r.needDisplays {
			s.nbrCnt = make([]int, dPad)[:d]
			s.nbrW = make([]float64, d)
		}
	}
	if cfg.Faults != nil {
		r.baseEff, r.baseChannel, r.curNoise = eff, ch, cfg.Noise
		r.fs = newFaultState(&cfg, backend)
	}
	r.initPopulation()
	if r.initErr != nil {
		return nil, r.initErr
	}
	if workers > 1 {
		r.pool = newPool(workers)
		// Safety net: reclaim the pool goroutines if the caller forgets
		// Close. The workers reference only the pool (p.r is nil while
		// idle), so an abandoned Runner does become unreachable.
		runtime.SetFinalizer(r, (*Runner).Close)
	}
	return r, nil
}

// initPopulation (re)derives every agent's RNG stream and (re)builds the
// agents, applying seeded initialization and adversarial corruption. It is
// the shared construction path of New and Reset, so a Reset runner is
// bit-identical to a fresh one. An async runner also reseeds its scheduler
// stream and tallies the initial displays and opinions.
func (r *Runner) initPopulation() {
	cfg := &r.cfg
	r.curRound = 0
	r.completedRound, r.streak, r.firstAll, r.lastCorrect = 0, 0, 0, 0
	if r.fs != nil {
		r.fs.reset(cfg)
		r.restoreNoise()
	}
	if r.ce != nil {
		r.ce.reset(cfg, r.env, r.correct)
		return
	}
	if r.pop != nil {
		r.initVecPopulation()
		return
	}
	if r.async {
		r.sched.Reseed(rng.DeriveSeed(cfg.Seed, ^uint64(0)))
	}
	for i := range r.streams {
		r.streams[i].Reseed(rng.DeriveSeed(cfg.Seed, uint64(i)))
	}
	role := func(id int) Role { return roleOf(id, cfg.Sources1, cfg.Sources0) }
	if bp, ok := cfg.Protocol.(BulkProtocol); ok {
		r.agents = bp.NewAgents(cfg.N, r.env, role)
	} else {
		if r.agents == nil {
			r.agents = make([]Agent, cfg.N)
		}
		for i := range r.agents {
			r.agents[i] = cfg.Protocol.NewAgent(i, role(i), r.env)
		}
	}
	wrong := 1 - r.correct
	for i, a := range r.agents {
		if s, ok := a.(Seeder); ok {
			s.SeedInit(&r.streams[i])
		}
		if cfg.Corruption != CorruptNone {
			if c, ok := a.(Corruptible); ok {
				c.Corrupt(cfg.Corruption, wrong, &r.streams[i])
			}
		}
	}
	if !r.async {
		return
	}
	r.initErr, r.live = nil, 0
	for j := range r.probs {
		r.probs[j] = 0
	}
	for i, a := range r.agents {
		s := a.Display()
		if s < 0 || s >= r.env.Alphabet {
			r.initErr = fmt.Errorf("sim: agent %d displays symbol %d outside alphabet %d", i, s, r.env.Alphabet)
			return
		}
		r.displays[i] = s
		r.probs[s]++
		if a.Opinion() == r.correct {
			r.live++
		}
	}
}

// Reset rewinds the runner to a freshly constructed state under the given
// seed: RNG streams are re-derived, agents are rebuilt, and run bookkeeping
// is cleared, exactly as if New had been called with the same configuration
// and the new seed — but reusing the runner's allocations and worker pool.
func (r *Runner) Reset(seed uint64) {
	r.cfg.Seed = seed
	r.ran = false
	r.initPopulation()
}

// Close releases the worker pool goroutines. Calling it is optional — a GC
// finalizer performs the same cleanup when an un-Closed Runner becomes
// unreachable — but deterministic release is cheaper than waiting for the
// collector. Close is idempotent; a closed Runner must not be Run again.
func (r *Runner) Close() {
	if r.pool != nil {
		r.pool.close()
		runtime.SetFinalizer(r, nil)
	}
}

// roleOf assigns roles deterministically: agents [0, s1) are 1-sources,
// agents [s1, s1+s0) are 0-sources, the rest are non-sources. Identities
// are immaterial under uniform sampling.
func roleOf(id, s1, s0 int) Role {
	switch {
	case id < s1:
		return Role{IsSource: true, Preference: 1}
	case id < s1+s0:
		return Role{IsSource: true, Preference: 0}
	default:
		return Role{}
	}
}

// Agents exposes the instantiated agents (read-only use intended: tests and
// diagnostics inspect protocol state through it). It is nil for the counts
// backend, which materializes no individual agents, and for the vectorized
// path, which stores the population as flat slices; use ClassCounts or the
// AgentState/AgentWeakOpinion accessors there.
func (r *Runner) Agents() []Agent { return r.agents }

// ClassCounts returns a copy of the current per-class population counts of a
// counts-backend runner (the protocol's CountableProtocol class indexing),
// or nil for the per-agent backends.
func (r *Runner) ClassCounts() []int {
	if r.ce == nil {
		return nil
	}
	out := make([]int, len(r.ce.counts))
	copy(out, r.ce.counts)
	return out
}

// Vectorized reports whether the runner took the struct-of-arrays fast
// path. It is false for the scalar per-agent path and the counts backend.
func (r *Runner) Vectorized() bool { return r.pop != nil }

// AgentState returns agent i's current display symbol and opinion. It works
// on both per-agent engine paths (scalar and vectorized); the counts
// backend materializes no individual agents and returns an error.
func (r *Runner) AgentState(i int) (display, opinion int, err error) {
	if i < 0 || i >= r.cfg.N {
		return 0, 0, fmt.Errorf("sim: agent index %d outside [0, %d)", i, r.cfg.N)
	}
	if r.pop != nil {
		display, opinion = r.pop.State(i)
		return display, opinion, nil
	}
	if r.agents == nil {
		return 0, 0, errors.New("sim: counts backend has no per-agent state")
	}
	a := r.agents[i]
	return a.Display(), a.Opinion(), nil
}

// displayAt returns agent i's live display symbol on either per-agent
// engine path; the fault engine uses it to capture crash-time snapshots.
func (r *Runner) displayAt(i int) int {
	if r.pop != nil {
		display, _ := r.pop.State(i)
		return display
	}
	return r.agents[i].Display()
}

// AgentWeakOpinion returns agent i's weak opinion for protocols that form
// one (SF's Ŷ, SSF's majority-of-memory), on both per-agent engine paths.
// ok is false when the index is out of range, the protocol exposes no weak
// opinion, or the backend has no per-agent state.
func (r *Runner) AgentWeakOpinion(i int) (weak int, ok bool) {
	if i < 0 || i >= r.cfg.N {
		return 0, false
	}
	if r.pop != nil {
		if wp, isWeak := r.pop.(VecWeakOpinions); isWeak {
			return wp.WeakOpinionAt(i), true
		}
		return 0, false
	}
	if r.agents == nil {
		return 0, false
	}
	if wa, isWeak := r.agents[i].(interface{ WeakOpinion() int }); isWeak {
		return wa.WeakOpinion(), true
	}
	return 0, false
}

// Env returns the environment the agents were built with.
func (r *Runner) Env() Env { return r.env }

// Backend returns the observation backend actually in use after
// auto-selection.
func (r *Runner) Backend() Backend { return r.backend }

// SetOnRound replaces the runner's per-round observation hook. It must not
// be called while a Run is in progress. Harness code that reuses a runner
// across seeds (the service's seed loop) uses it to repoint progress
// streaming at the current seed between Reset and Run.
func (r *Runner) SetOnRound(fn func(round, correct int)) {
	r.cfg.OnRound = fn
}

// SetOnFault replaces the runner's fault-application hook, under the same
// rules as SetOnRound: not while a Run is in progress, intended for harness
// code repointing telemetry between Reset and Run.
func (r *Runner) SetOnFault(fn func(faults.Record)) {
	r.cfg.OnFault = fn
}

// SetCheckpoint configures periodic checkpointing: every `every` rounds the
// engine snapshots its state at the round barrier and hands the encoding to
// fn (see Snapshot/Restore). every <= 0 or a nil fn disables checkpointing.
// Like SetOnRound, it must not be called while a Run is in progress; harness
// code repoints it between Reset and Run.
func (r *Runner) SetCheckpoint(every int, fn func(round int, snapshot []byte)) {
	r.cfg.CheckpointEvery = every
	r.cfg.OnCheckpoint = fn
}

// Run executes rounds until the protocol finishes (finite protocols), the
// population has been all-correct for the stability window (infinite
// protocols), or MaxRounds elapse. A Runner runs once per New or Reset;
// calling Run again without a Reset is an error.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// once per round, so a cancelled run stops within one round instead of
// running to MaxRounds, returning ctx.Err() (context.Canceled or
// context.DeadlineExceeded). A cancelled runner stays reusable — Reset
// rewinds it to a state bit-identical to a freshly constructed one.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	if r.ran {
		return nil, errors.New("sim: Runner.Run called again without Reset")
	}
	r.ran = true
	if r.initErr != nil {
		return nil, r.initErr
	}
	cfg := &r.cfg
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = defaultMaxRounds(cfg.N)
	}
	window := cfg.StabilityWindow
	if window == 0 {
		window = 1
	}

	// The asynchronous schedule has no global clock, so a Finite protocol
	// runs under the stability window there like any other.
	finiteRounds := -1
	if f, ok := cfg.Protocol.(Finite); ok && !r.async {
		finiteRounds = f.Rounds(r.env)
		if finiteRounds < 1 {
			return nil, fmt.Errorf("sim: finite protocol reports %d rounds", finiteRounds)
		}
	}

	res := &Result{CorrectOpinion: r.correct}
	if cfg.TrackHistory {
		capRounds := maxRounds
		if finiteRounds > 0 && finiteRounds < capRounds {
			capRounds = finiteRounds
		}
		if capRounds > 1<<20 {
			capRounds = 1 << 20
		}
		res.History = make([]int, 0, capRounds)
	}

	if r.pool != nil {
		r.pool.attach(r)
		defer r.pool.detach()
	}

	// A restored runner resumes from its snapshot's round with the streak
	// bookkeeping it carried; a fresh or Reset runner starts from zero.
	done := ctx.Done()
	stable := r.streak
	res.FirstAllCorrect = r.firstAll
	res.Rounds = r.completedRound
	res.FinalCorrect = r.lastCorrect
	for round := r.completedRound + 1; round <= maxRounds; round++ {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		r.curRound = round
		if r.fs != nil {
			if err := r.applyFaults(round); err != nil {
				return nil, fmt.Errorf("sim: round %d: %w", round, err)
			}
		}
		correctCount, err := r.step()
		if err != nil {
			return nil, fmt.Errorf("sim: round %d: %w", round, err)
		}
		res.Rounds = round
		res.FinalCorrect = correctCount
		if cfg.TrackHistory {
			res.History = append(res.History, correctCount)
		}

		allCorrect := correctCount == cfg.N
		if r.fs != nil && allCorrect {
			r.fs.markRecovered(round)
		}
		if allCorrect && res.FirstAllCorrect == 0 {
			res.FirstAllCorrect = round
		}
		if allCorrect {
			stable++
		} else {
			stable = 0
			res.FirstAllCorrect = 0 // require the *final* streak for stability semantics
		}
		// Round barrier: the bookkeeping Snapshot captures is consistent from
		// here on, so the hooks below may checkpoint.
		r.completedRound, r.streak, r.firstAll, r.lastCorrect = round, stable, res.FirstAllCorrect, correctCount
		if cfg.OnRound != nil {
			cfg.OnRound(round, correctCount)
		}
		if cfg.CheckpointEvery > 0 && cfg.OnCheckpoint != nil && round%cfg.CheckpointEvery == 0 {
			data, err := r.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("sim: round %d: checkpoint: %w", round, err)
			}
			cfg.OnCheckpoint(round, data)
		}

		if finiteRounds > 0 {
			if round == finiteRounds {
				res.Converged = allCorrect
				r.attachFaults(res)
				return res, nil
			}
			continue
		}
		if stable >= window {
			res.Converged = true
			r.attachFaults(res)
			return res, nil
		}
	}
	// Reaching here means the round budget ran out before the protocol's
	// own termination condition (finite schedule or stability window), so
	// the run did not converge; res.Converged keeps its zero value.
	r.attachFaults(res)
	return res, nil
}

// step executes one round and returns the number of agents holding the
// correct opinion at its end. It performs no allocations and spawns no
// goroutines: both phases of a synchronous round run on the persistent
// worker pool with preallocated scratch.
func (r *Runner) step() (int, error) {
	if r.ce != nil {
		return r.ce.step(r)
	}
	if r.pop != nil {
		return r.stepVec()
	}
	if r.async {
		return r.stepAsync()
	}
	// Phase A: snapshot displays, counting symbols in per-worker shards.
	if r.pool != nil {
		r.pool.dispatch(phaseSnapshot)
	} else {
		r.snapshotRange(0)
	}
	if err := r.mergeSnapshot(); err != nil {
		return 0, err
	}

	// Phase B: observe and update every agent.
	if r.pool != nil {
		r.pool.dispatch(phaseObserve)
	} else {
		r.observeRange(0)
	}
	total := 0
	for w := range r.scratch {
		total += r.scratch[w].partial
	}
	return total, nil
}

// snapshotRange is Phase A for worker w's agent range: record displays (when
// a topology needs them) and count displayed symbols into the worker's
// shard. A protocol returning a symbol outside the alphabet is recorded as
// an error rather than a panic; the offending symbol is counted as 0 to keep
// the engine state sane until the coordinator aborts the round.
func (r *Runner) snapshotRange(w int) {
	s := &r.scratch[w]
	d := r.env.Alphabet
	shard := s.shard
	for j := range shard {
		shard[j] = 0
	}
	s.err = nil
	var crashUntil, frozen []int
	if r.fs != nil {
		crashUntil, frozen = r.fs.crashUntil, r.fs.frozen
	}
	for i := s.lo; i < s.hi; i++ {
		var sym int
		if crashUntil != nil && crashUntil[i] > r.curRound {
			// Crashed: the stale symbol captured at crash time stays up.
			sym = frozen[i]
		} else {
			sym = r.agents[i].Display()
		}
		if sym < 0 || sym >= d {
			if s.err == nil {
				s.err = fmt.Errorf("agent %d displayed symbol %d outside alphabet [0, %d)", i, sym, d)
			}
			sym = 0
		}
		if r.needDisplays {
			r.displays[i] = sym
		}
		shard[sym]++
	}
}

// mergeSnapshot runs at the Phase A barrier: it merges the worker count
// shards and derives the round's sampling state (multinomial weights for the
// aggregate backend, the display→observation mixture alias for the
// complete-graph exact backend).
func (r *Runner) mergeSnapshot() error {
	for j := range r.counts {
		r.counts[j] = 0
	}
	for w := range r.scratch {
		s := &r.scratch[w]
		if s.err != nil {
			return s.err
		}
		for j, c := range s.shard {
			r.counts[j] += c
		}
	}
	d := r.env.Alphabet
	switch r.backend {
	case BackendAggregate:
		for j, c := range r.counts {
			r.probs[j] = float64(c)
		}
	case BackendExact:
		if r.cfg.Topology == nil {
			// One uniform sample pushed through the channel is distributed
			// as the counts-weighted mixture of the effective rows; h exact
			// samples are h draws from this single alias table.
			for j := 0; j < d; j++ {
				acc := 0.0
				for sigma := 0; sigma < d; sigma++ {
					acc += float64(r.counts[sigma]) * r.effRows[sigma][j]
				}
				r.mixW[j] = acc
			}
			// The weights sum to n > 0, so Init cannot fail.
			if err := r.mix.Init(r.mixW); err != nil {
				return err
			}
		}
	}
	return nil
}

// observeRange is Phase B for worker w's agent range: fill each agent's
// observation counts using the selected backend and deliver them, tallying
// correct opinions into the worker's partial count.
func (r *Runner) observeRange(w int) {
	s := &r.scratch[w]
	count := 0
	var crashUntil []int
	if r.fs != nil {
		crashUntil = r.fs.crashUntil
	}
	for i := s.lo; i < s.hi; i++ {
		a := r.agents[i]
		if crashUntil != nil && crashUntil[i] > r.curRound {
			// Crashed: no observations, no update; the pre-crash opinion
			// still counts toward the tally.
			if a.Opinion() == r.correct {
				count++
			}
			continue
		}
		stream := &r.streams[i]
		r.observe(i, stream, s)
		a.Observe(s.observed, stream)
		if a.Opinion() == r.correct {
			count++
		}
	}
	s.partial = count
}

// observe fills s.observed with agent i's per-symbol observation counts for
// this round, using the selected backend and worker w's scratch.
func (r *Runner) observe(i int, stream *rng.Stream, s *workerScratch) {
	h := r.cfg.H
	observed := s.observed
	for j := range observed {
		observed[j] = 0
	}
	switch r.backend {
	case BackendExact:
		var nb []int32
		if r.cfg.Topology != nil {
			nb = r.cfg.Topology.Neighbors(i)
		}
		d := r.env.Alphabet
		switch {
		case r.async:
			// No round snapshot to build a mixture from: every sample reads
			// the live displays.
		case nb == nil:
			for k := 0; k < h; k++ {
				observed[r.mix.Sample(stream)]++
			}
			return
		case len(nb)+d*d <= 2*h:
			// Small neighborhood: build the neighborhood's observation
			// mixture once (O(deg + d²)) and draw from its alias table,
			// instead of paying a neighbor draw, a display load, and a
			// channel draw per sample.
			cnt := s.nbrCnt
			for j := range cnt {
				cnt[j] = 0
			}
			for _, v := range nb {
				cnt[r.displays[v]]++
			}
			for j := 0; j < d; j++ {
				acc := 0.0
				for sigma := 0; sigma < d; sigma++ {
					acc += float64(cnt[sigma]) * r.effRows[sigma][j]
				}
				s.nbrW[j] = acc
			}
			// The weights sum to the degree ≥ 1, so Init cannot fail.
			_ = s.nbrMix.Init(s.nbrW)
			for k := 0; k < h; k++ {
				observed[s.nbrMix.Sample(stream)]++
			}
			return
		}
		for k := 0; k < h; k++ {
			var sigma int
			if nb != nil {
				sigma = r.displays[nb[stream.Intn(len(nb))]]
			} else {
				sigma = r.displays[stream.Intn(r.cfg.N)]
			}
			observed[r.channel.Apply(stream, sigma)]++
		}
	case BackendAggregate:
		// The h sampled display symbols are Multinomial(h, counts/n); the
		// composed channel scatters them over its rows in aggregate.
		stream.Multinomial(h, r.probs, s.sampled)
		r.channel.ApplyCounts(stream, s.sampled, observed)
	default:
		panic(fmt.Sprintf("sim: unresolved backend %v", r.backend))
	}
}
