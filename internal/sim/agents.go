package sim

import (
	"fmt"

	"noisypull/internal/graph"
	"noisypull/internal/noise"
	"noisypull/internal/rng"
)

// agentPop is the VecPopulation over Protocol.NewAgent agents: it runs a
// protocol's per-agent definition on the engine's one round loop. The
// runner uses it under Config.ForceScalar and NewAsync, and for protocols
// without a kernel (no VecProtocol, or a nil NewVecPopulation).
//
// Unlike a kernel, every agent owns an rng stream, DeriveSeed(seed, i),
// which drives its initialization, its corruption, and its observations,
// so the adapter ignores the chunk and fault streams it is handed and its
// trajectory does not depend on the chunk layout or the worker count. It
// keeps the reference samplers the per-agent goldens pin: the
// complete-graph exact mixture alias, per-sample channel draws or the
// small-neighbourhood alias on a graph, and nested multinomials on the
// aggregate backend. buildLaw prepares them at the stepVec barrier.
type agentPop struct {
	proto   Protocol
	spec    VecSpec
	seed    uint64
	agents  []Agent
	streams []rng.Stream

	backend Backend
	topo    *graph.Graph   // nil on the complete graph
	effRows [][]float64    // aliases the runner's rows (noise faults repoint them)
	channel *noise.Channel // the runner's channel, refreshed at every barrier
	fs      *faultState    // crash bookkeeping; nil without a fault schedule
	round   int            // the round being executed, for Phase A's crash check
	async   bool

	displays []int     // full-width display vector (graph and async runs)
	probs    []float64 // aggregate weights: the round's counts, or live displays under async
	mixW     []float64
	mix      rng.Alias      // complete-graph exact: display→observation mixture
	scratch  []agentScratch // per worker: worker w steps chunks c ≡ w (mod workers)

	// Asynchronous schedule: sched picks the activating agent and live is
	// the current correct-opinion count, kept incrementally with probs.
	sched rng.Stream
	live  int
}

// agentScratch is one worker's sampler scratch and Phase A error.
type agentScratch struct {
	observed, sampled, nbrCnt []int
	nbrW                      []float64
	nbrMix                    rng.Alias // graph: per-neighbourhood observation mixture
	err                       error     // first out-of-alphabet display in Phase A
}

func newAgentPop(cfg *Config, spec VecSpec, backend Backend, effRows [][]float64, ch *noise.Channel, fs *faultState, workers int, async bool) *agentPop {
	n, d := cfg.N, spec.Env.Alphabet
	p := &agentPop{
		proto:   cfg.Protocol,
		spec:    spec,
		streams: make([]rng.Stream, n),
		backend: backend,
		topo:    cfg.Topology,
		effRows: effRows,
		channel: ch,
		fs:      fs,
		async:   async,
		probs:   make([]float64, d),
		mixW:    make([]float64, d),
		scratch: make([]agentScratch, workers),
	}
	if async || cfg.Topology != nil {
		p.displays = make([]int, n)
	}
	// One slab for every worker's buffers, each padded to a cache line so
	// adjacent workers never write the same one.
	dPad := (d + 7) &^ 7
	ints := make([]int, 3*dPad*workers)
	var floats []float64
	if cfg.Topology != nil {
		floats = make([]float64, dPad*workers)
	}
	for w := range p.scratch {
		s, ws := &p.scratch[w], ints[3*dPad*w:]
		s.observed, s.sampled, s.nbrCnt = ws[:d], ws[dPad:dPad+d], ws[2*dPad:2*dPad+d]
		if floats != nil {
			s.nbrW = floats[dPad*w : dPad*w+d]
		}
	}
	return p
}

// reset rebuilds every agent under seed. On the asynchronous schedule it
// also reseeds the activation stream and tallies the initial displays and
// opinions, reporting an out-of-alphabet display.
func (p *agentPop) reset(seed uint64) error {
	p.seed = seed
	env := p.spec.Env
	if bp, ok := p.proto.(BulkProtocol); ok {
		p.agents = bp.NewAgents(len(p.streams), env, p.spec.Role)
	} else {
		if p.agents == nil {
			p.agents = make([]Agent, len(p.streams))
		}
		for i := range p.agents {
			p.agents[i] = p.proto.NewAgent(i, p.spec.Role(i), env)
		}
	}
	p.InitRange(0, len(p.agents), nil)
	if !p.async {
		return nil
	}
	p.sched.Reseed(rng.DeriveSeed(seed, ^uint64(0)))
	p.live = 0
	for j := range p.probs {
		p.probs[j] = 0
	}
	for i, a := range p.agents {
		s := a.Display()
		if s < 0 || s >= env.Alphabet {
			return fmt.Errorf("sim: agent %d displays symbol %d outside alphabet %d", i, s, env.Alphabet)
		}
		p.displays[i] = s
		p.probs[s]++
		if a.Opinion() == p.spec.Correct {
			p.live++
		}
	}
	return nil
}

// InitRange reseeds the streams of agents [lo, hi) and applies their seeded
// initialization and the spec's round-0 corruption, each from the agent's
// own stream; reset builds the agents first.
func (p *agentPop) InitRange(lo, hi int, _ *rng.Stream) {
	wrong := 1 - p.spec.Correct
	for i := lo; i < hi; i++ {
		p.streams[i].Reseed(rng.DeriveSeed(p.seed, uint64(i)))
		if s, ok := p.agents[i].(Seeder); ok {
			s.SeedInit(&p.streams[i])
		}
		if p.spec.Corruption != CorruptNone {
			p.CorruptAt(i, p.spec.Corruption, wrong, nil)
		}
	}
}

// scratchOf returns the scratch of the worker stepping the chunk at lo.
func (p *agentPop) scratchOf(lo int) *agentScratch {
	return &p.scratch[(lo/VecChunkSize)%len(p.scratch)]
}

// CountRange is Phase A: it counts the displays of agents [lo, hi) and,
// on a graph, records them at full width. A crashed agent is not asked to
// Display; its frozen symbol stays up. A symbol outside the alphabet is
// counted as 0 and recorded for buildLaw to report.
func (p *agentPop) CountRange(lo, hi int, counts []int) {
	s := p.scratchOf(lo)
	var crashUntil, frozen []int
	if p.fs != nil {
		crashUntil, frozen = p.fs.crashUntil, p.fs.frozen
	}
	for i := lo; i < hi; i++ {
		var sym int
		if crashUntil != nil && crashUntil[i] > p.round {
			sym = frozen[i]
		} else {
			sym = p.agents[i].Display()
		}
		if sym < 0 || sym >= len(counts) {
			if s.err == nil {
				s.err = fmt.Errorf("agent %d displayed symbol %d outside alphabet [0, %d)", i, sym, len(counts))
			}
			sym = 0
		}
		if p.displays != nil {
			p.displays[i] = sym
		}
		counts[sym]++
	}
}

// DisplayRange implements VecPopulation. The runner never calls it on the
// adapter: a uint8 display vector would narrow symbols ≥ 256, so graph
// runs read the full-width vector CountRange records instead.
func (p *agentPop) DisplayRange(lo, hi int, out []uint8) {
	for i := lo; i < hi; i++ {
		out[i] = uint8(p.agents[i].Display())
	}
}

// buildLaw runs at the Phase A barrier: it reports an out-of-alphabet
// display (clearing them all, so a Reset runner starts clean), then derives
// the round's sampling state from the merged display counts — multinomial
// weights on the aggregate backend, the display→observation mixture alias
// for the complete-graph exact backend.
func (p *agentPop) buildLaw(counts []int, ch *noise.Channel) error {
	for w := range p.scratch {
		if err := p.scratch[w].err; err != nil {
			for w := range p.scratch {
				p.scratch[w].err = nil
			}
			return err
		}
	}
	p.channel = ch
	switch {
	case p.backend == BackendAggregate:
		for j, c := range counts {
			p.probs[j] = float64(c)
		}
	case p.topo == nil:
		// One uniform sample pushed through the channel is distributed as
		// the counts-weighted mixture of the effective rows; h exact samples
		// are h draws from this single alias table. The weights sum to
		// n > 0, so Init cannot fail.
		mixture(p.mixW, counts, p.effRows)
		return p.mix.Init(p.mixW)
	}
	return nil
}

// mixture fills w with the counts-weighted mixture of the effective rows.
func mixture(w []float64, counts []int, effRows [][]float64) {
	for j := range w {
		acc := 0.0
		for sigma, c := range counts {
			acc += float64(c) * effRows[sigma][j]
		}
		w[j] = acc
	}
}

// StepRange is Phase B: every live agent in [lo, hi) draws its
// observations from its own stream and updates; crashed agents keep their
// state. It returns the number of agents holding opinion 1.
func (p *agentPop) StepRange(lo, hi int, obs *VecObs, _ *rng.Stream) int {
	s := p.scratchOf(lo)
	ones := 0
	for i := lo; i < hi; i++ {
		a := p.agents[i]
		if !obs.Crashed(i) {
			p.observe(i, &p.streams[i], s)
			a.Observe(s.observed, &p.streams[i])
		}
		if a.Opinion() == 1 {
			ones++
		}
	}
	return ones
}

// observe fills s.observed with agent i's per-symbol observation counts
// for this round.
func (p *agentPop) observe(i int, stream *rng.Stream, s *agentScratch) {
	h := p.spec.Env.H
	observed := s.observed
	for j := range observed {
		observed[j] = 0
	}
	if p.backend == BackendAggregate {
		// The h sampled display symbols are Multinomial(h, counts/n); the
		// composed channel scatters them over its rows in aggregate.
		stream.Multinomial(h, p.probs, s.sampled)
		p.channel.ApplyCounts(stream, s.sampled, observed)
		return
	}
	var nb []int32
	if p.topo != nil {
		nb = p.topo.Neighbors(i)
	}
	d := len(observed)
	switch {
	case p.async:
		// No round snapshot to build a mixture from: every sample reads the
		// live displays.
	case nb == nil:
		for k := 0; k < h; k++ {
			observed[p.mix.Sample(stream)]++
		}
		return
	case len(nb)+d*d <= 2*h:
		// Small neighbourhood: build its observation mixture once
		// (O(deg + d²)) and draw from its alias table, instead of paying a
		// neighbour draw, a display load, and a channel draw per sample.
		cnt := s.nbrCnt
		for j := range cnt {
			cnt[j] = 0
		}
		for _, v := range nb {
			cnt[p.displays[v]]++
		}
		mixture(s.nbrW, cnt, p.effRows)
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
			sigma = p.displays[nb[stream.Intn(len(nb))]]
		} else {
			sigma = p.displays[stream.Intn(len(p.displays))]
		}
		observed[p.channel.Apply(stream, sigma)]++
	}
}

// stepAsync executes one parallel round of the asynchronous schedule: n
// activations, each of a uniformly random agent that observes the live
// displays and updates at once. The display vector, the display weights
// (probs), and the correct-opinion count live are kept incrementally from
// the tally reset takes.
func (p *agentPop) stepAsync() (int, error) {
	s := &p.scratch[0]
	n, d, correct := len(p.agents), p.spec.Env.Alphabet, p.spec.Correct
	for k := 0; k < n; k++ {
		i := p.sched.Intn(n)
		a, stream := p.agents[i], &p.streams[i]
		p.observe(i, stream, s)
		wasCorrect := a.Opinion() == correct
		a.Observe(s.observed, stream)
		if sym := a.Display(); sym != p.displays[i] {
			if sym < 0 || sym >= d {
				return 0, fmt.Errorf("agent %d displayed symbol %d outside alphabet [0, %d)", i, sym, d)
			}
			p.probs[p.displays[i]]--
			p.probs[sym]++
			p.displays[i] = sym
		}
		if isCorrect := a.Opinion() == correct; isCorrect != wasCorrect {
			if isCorrect {
				p.live++
			} else {
				p.live--
			}
		}
	}
	return p.live, nil
}

// State returns agent i's display and opinion.
func (p *agentPop) State(i int) (display, opinion int) {
	a := p.agents[i]
	return a.Display(), a.Opinion()
}

// CorruptAt corrupts agent i through its own stream when it is
// Corruptible.
func (p *agentPop) CorruptAt(i int, mode CorruptionMode, wrong int, _ *rng.Stream) {
	if c, ok := p.agents[i].(Corruptible); ok {
		c.Corrupt(mode, wrong, &p.streams[i])
	}
}

// ReinitAt replaces agent i with a freshly built non-source, seeded from
// the agent's own stream.
func (p *agentPop) ReinitAt(i int, _ *rng.Stream) {
	a := p.proto.NewAgent(i, Role{}, p.spec.Env)
	if s, ok := a.(Seeder); ok {
		s.SeedInit(&p.streams[i])
	}
	p.agents[i] = a
}

// snapshottable reports why the population cannot be checkpointed: an
// agent that does not implement Snapshotter.
func (p *agentPop) snapshottable() error {
	for _, a := range p.agents {
		if _, ok := a.(Snapshotter); !ok {
			return fmt.Errorf("sim: protocol agent %T does not implement Snapshotter; checkpoint/resume is unavailable", a)
		}
	}
	return nil
}

// SnapshotRange writes each agent's stream state and Snapshotter payload;
// Runner.Snapshot checks snapshottable first.
func (p *agentPop) SnapshotRange(w *SnapWriter, lo, hi int) {
	for i := lo; i < hi; i++ {
		for _, s := range p.streams[i].State() {
			w.U64(s)
		}
		p.agents[i].(Snapshotter).SnapshotState(w)
	}
}

// RestoreRange reads what SnapshotRange wrote.
func (p *agentPop) RestoreRange(rd *SnapReader, lo, hi int) error {
	for i := lo; i < hi && rd.Err() == nil; i++ {
		var st [4]uint64
		for j := range st {
			st[j] = rd.U64()
		}
		if err := p.streams[i].SetState(st); err != nil {
			return err
		}
		snap, ok := p.agents[i].(Snapshotter)
		if !ok {
			return fmt.Errorf("sim: protocol agent %T does not implement Snapshotter", p.agents[i])
		}
		snap.RestoreState(rd)
	}
	return rd.Err()
}
