package sim_test

import (
	"testing"

	"noisypull/internal/graph"
	"noisypull/internal/rng"
	"noisypull/internal/sim"
)

// wideProto is a 300-symbol protocol whose agents all display the top
// symbol, 299, and count every observation of any other symbol as lost.
type wideProto struct{}

func (wideProto) Alphabet() int { return 300 }
func (wideProto) NewAgent(id int, role sim.Role, env sim.Env) sim.Agent {
	return &wideAgent{}
}

type wideAgent struct{ observed, lost int }

func (a *wideAgent) Display() int { return 299 }
func (a *wideAgent) Observe(counts []int, r *rng.Stream) {
	for sym, c := range counts {
		a.observed += c
		if sym != 299 {
			a.lost += c
		}
	}
}
func (a *wideAgent) Opinion() int { return 0 }

// TestWideAlphabetSymbols: display symbols keep their full width on the
// per-agent definition. Under zero noise every observation must read 299 —
// on a graph, on the complete graph with the exact backend, and under the
// asynchronous schedule; a display vector narrowed to a byte would lose
// them all.
func TestWideAlphabetSymbols(t *testing.T) {
	ring, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{
		N: 200, H: 5, Sources1: 2, Sources0: 1,
		Noise:     uniformNoise(t, 300, 0),
		Protocol:  wideProto{},
		Seed:      9,
		Backend:   sim.BackendExact,
		MaxRounds: 1,
	}
	onRing := base
	onRing.Topology = ring
	cases := []struct {
		name  string
		cfg   sim.Config
		async bool
	}{
		{"ring", onRing, false},
		{"complete exact", base, false},
		{"async", base, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newRunner := sim.New
			if tc.async {
				newRunner = sim.NewAsync
			}
			r, err := newRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			observed, lost := 0, 0
			for _, a := range r.Agents() {
				observed += a.(*wideAgent).observed
				lost += a.(*wideAgent).lost
			}
			if observed == 0 || lost != 0 {
				t.Fatalf("%d of %d observations did not read symbol 299", lost, observed)
			}
		})
	}
}
