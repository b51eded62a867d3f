package sim

// Step runs one round outside RunContext, so tests can measure a
// steady-state round on its own.
func (r *Runner) Step() (int, error) { return r.step() }
