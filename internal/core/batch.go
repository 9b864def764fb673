package core

// Batch submission.
//
// A communication strategy that flushes a burst of packets — the
// aggregation strategy's send path is the motivating case — would pay
// one queue-lock round-trip per packet under Submit. SubmitAll
// amortizes it across the burst: consecutive same-queue tasks are
// appended as one chain under a single lock acquisition (the
// producer-side mirror of the consumer's batched drain).

// SubmitAll submits a batch of tasks as one operation. Placement is
// identical to per-task Submit (deepest covering queue per task), but
// runs of consecutive tasks bound for the same queue share one locked
// chain append (placeChain, the chain drains re-home through).
//
// The batch is all-or-nothing with respect to validation: every task
// is checked and transitioned first, and if any is invalid (nil Fn, or
// not in StateFree) the already-transitioned tasks are reverted and no
// task is enqueued.
func (e *Engine) SubmitAll(tasks ...*Task) error {
	if len(tasks) == 0 {
		return nil
	}
	if len(tasks) == 1 {
		return e.Submit(tasks[0])
	}
	for i, t := range tasks {
		if err := submitPrep(t, "SubmitAll"); err != nil {
			for _, u := range tasks[:i] {
				u.life.Store(uint64(StateFree))
			}
			return err
		}
	}

	c := placeChain{e: e}
	for _, t := range tasks {
		c.add(t)
	}
	c.flush()
	return nil
}

// MustSubmitAll is SubmitAll that panics on error, for call sites where
// a batch failure is a programming bug.
func (e *Engine) MustSubmitAll(tasks ...*Task) {
	if err := e.SubmitAll(tasks...); err != nil {
		panic(err)
	}
}
