package submit

// SealedWaiting returns the number of sealed batches waiting for the
// runner. While the runner is held inside an epoch, a nonzero count proves
// the former closed the next batch on its own (deadline, size cap, or
// Close) rather than by dispatching to an idle runner.
func SealedWaiting(s *Submitter) int { return len(s.runq) }
