package nvcaracal

import "nvcaracal/internal/submit"

// Concurrent group-commit front-end (internal/submit), re-exported so
// applications can serve transactions from many goroutines instead of
// hand-assembling epoch batches.
type (
	// Submitter batches concurrent Submit/SubmitAria calls into epochs and
	// resolves each submission's future once its epoch is durable.
	Submitter = submit.Submitter
	// SubmitterConfig tunes the batch former (size cap, in-flight
	// deadline, queue depth, overload policy).
	SubmitterConfig = submit.Config
	// Future resolves to a SubmitResult when the submission's epoch is
	// durable.
	Future = submit.Future
	// SubmitResult is the final outcome of one submission.
	SubmitResult = submit.Result
	// OverloadPolicy selects blocking backpressure or load shedding when
	// the submission queue is full.
	OverloadPolicy = submit.Overload
)

// Overload policies for SubmitterConfig.
const (
	// OverloadBlock makes Submit wait for queue space (default).
	OverloadBlock = submit.Block
	// OverloadReject makes Submit return ErrOverloaded immediately.
	OverloadReject = submit.Reject
)

// Submitter errors.
var (
	// ErrSubmitterClosed rejects submissions after Close.
	ErrSubmitterClosed = submit.ErrClosed
	// ErrOverloaded rejects submissions when the queue is full under
	// OverloadReject.
	ErrOverloaded = submit.ErrOverloaded
	// ErrEpochFailed resolves futures of the epoch that was executing when
	// the engine failed; those inputs may or may not have reached the log,
	// so recovery may still replay them.
	ErrEpochFailed = submit.ErrEpochFailed
	// ErrNeverSubmitted resolves futures of transactions that never entered
	// an epoch before a failure; they are guaranteed absent from the log.
	ErrNeverSubmitted = submit.ErrNeverSubmitted
)

// NewSubmitter starts a concurrent group-commit front-end over db.
// Goroutines may then call Submit/SubmitAria freely; the caller must not
// call RunEpoch/RunEpochAria directly while the submitter is open, and must
// Close it to flush queued work.
func NewSubmitter(db *DB, cfg SubmitterConfig) *Submitter {
	return submit.New(db, cfg)
}
