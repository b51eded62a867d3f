package sim

// Step runs one round outside RunContext, advancing the round counter and
// applying the fault events due as RunContext does, so tests can measure a
// steady-state round on its own.
func (r *Runner) Step() (int, error) {
	r.curRound++
	if r.fs != nil {
		if err := r.applyFaults(r.curRound); err != nil {
			return 0, err
		}
	}
	return r.step()
}
