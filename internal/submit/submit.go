// Package submit is the concurrent group-commit front-end of the engine.
//
// The core engine processes work one epoch at a time: RunEpoch (and
// RunEpochAria) take a hand-assembled batch and are not safe for concurrent
// calls. This package turns that single-threaded epoch loop into a serving
// layer: any number of client goroutines call Submit/SubmitAria and receive
// a Future; a batch former groups submissions into epochs; a runner
// executes the batches through the unchanged RunEpoch/RunEpochAria path.
// Futures resolve once their epoch is durable — the natural fit for the
// paper's design, which amortizes NVMM persistence (log write, fence,
// epoch record) over the whole batch.
//
// The former dispatches as soon as no epoch is outstanding (idle
// dispatch), after taking in whatever is already queued: an idle engine
// gains nothing from waiting, and since checkpoints write back only the
// metadata that changed, a small epoch's fixed persistence cost is little
// more than its log append and fences. While epoch N executes, the former
// accumulates epoch N+1 and closes it when N completes, when it reaches
// the size cap, or at the MaxDelay deadline, so batch size follows the
// load that arrives during one epoch and submission latency hides behind
// epoch execution. Caracal-style and Aria transactions may be submitted
// concurrently; since an epoch holds one flavour, the former splits batches
// at flavour boundaries. Aria conflict losers (AriaResult.Deferred) are
// resubmitted automatically into the next Aria batch — their futures
// resolve only when the transaction finally commits or user-aborts — and
// the batch size cap counts them, so a batch never exceeds
// core.MaxTxnsPerEpoch even with a full redo backlog.
//
// Failure semantics: if the engine fails mid-epoch (an injected device
// crash, an allocator exhaustion), the submitter stops accepting work and
// resolves every outstanding future instead of hanging. Futures of the
// failing epoch get ErrEpochFailed — their inputs may or may not have
// reached the log, so recovery may still replay them. Futures that never
// entered an epoch get ErrNeverSubmitted — they are guaranteed absent from
// the log and must be retried after recovery.
package submit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nvcaracal/internal/core"
	"nvcaracal/internal/obs"
)

// Errors returned by the submitter.
var (
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("submit: submitter closed")
	// ErrOverloaded rejects submissions when the queue is full and the
	// overload policy is Reject.
	ErrOverloaded = errors.New("submit: submission queue full")
	// ErrEpochFailed resolves futures of the epoch that was executing when
	// the engine failed. The transactions may or may not have reached the
	// input log, so crash recovery may still replay (and commit) them.
	ErrEpochFailed = errors.New("submit: epoch failed before durability")
	// ErrNeverSubmitted resolves futures of transactions that were queued
	// but had not entered an epoch when the engine failed; they are
	// guaranteed absent from the input log.
	ErrNeverSubmitted = errors.New("submit: transaction never entered an epoch")
)

// Overload selects the backpressure behaviour when the submission queue is
// full.
type Overload int

const (
	// Block makes Submit wait for queue space (the default): client
	// goroutines absorb the backpressure.
	Block Overload = iota
	// Reject makes Submit return ErrOverloaded immediately so callers can
	// shed load themselves.
	Reject
)

// Config tunes the batch former. The zero value picks serviceable defaults.
type Config struct {
	// MaxBatch closes an epoch at this many transactions (resubmitted Aria
	// conflict losers included). Default 512; clamped to
	// core.MaxTxnsPerEpoch.
	MaxBatch int
	// MaxDelay bounds how long a batch forms while an epoch is in
	// flight: the batch closes this long after its first transaction
	// arrived even if the running epoch has not completed (it then waits
	// for the runner, one batch ahead). It never delays work on an idle
	// engine, which takes the forming batch at once. Default 2ms.
	MaxDelay time.Duration
	// QueueDepth bounds the submission queue between clients and the batch
	// former. Default 4*MaxBatch.
	QueueDepth int
	// Overload selects Block (default) or Reject when the queue is full.
	Overload Overload
}

func (c *Config) applyDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.MaxBatch > core.MaxTxnsPerEpoch {
		c.MaxBatch = core.MaxTxnsPerEpoch
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
}

// Result is the final outcome of one submission.
type Result struct {
	// Epoch is the epoch that made the outcome durable (zero on error).
	Epoch uint64
	// SID is the serial id the transaction held in that epoch.
	SID uint64
	// Committed reports commit; false with a nil Err means a user-level
	// abort.
	Committed bool
	// Err is non-nil when the outcome is unknown or the transaction never
	// ran: ErrEpochFailed, ErrNeverSubmitted, or an engine error.
	Err error
}

// Future resolves to a Result once the submission's epoch is durable (or
// the submitter fails). It is safe to Wait from multiple goroutines.
type Future struct {
	done chan struct{}
	res  Result

	resolved bool // runner-goroutine only; guards double resolution
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the result is available and returns it.
func (f *Future) Wait() Result {
	<-f.done
	return f.res
}

// resolve publishes the result. Only the runner goroutine resolves futures,
// so the resolved flag needs no lock.
func (f *Future) resolve(r Result) {
	if f.resolved {
		return
	}
	f.resolved = true
	f.res = r
	close(f.done)
}

// pending is one queued submission: exactly one of txn/aria is set.
type pending struct {
	txn  *core.Txn
	aria *core.AriaTxn
	fut  *Future
}

// Submitter is the concurrent group-commit front-end over one DB. Create
// with New; all methods are safe for concurrent use.
type Submitter struct {
	db  *core.DB
	cfg Config

	queue chan pending   // clients -> former (closed by Close)
	runq  chan []pending // former -> runner (cap 1: pipeline one batch ahead)
	compl chan []pending // runner -> former: epoch done, slice = Aria deferrals
	done  chan struct{}  // closed when former and runner have exited

	mu     sync.RWMutex // guards closed against racing enqueues
	closed bool

	failMu  sync.Mutex
	failErr error // first engine failure; sticky
}

// New starts a submitter over db. The caller must not call RunEpoch or
// RunEpochAria on db directly while the submitter is open, and must Close
// it to flush queued work and stop the background goroutines.
func New(db *core.DB, cfg Config) *Submitter {
	cfg.applyDefaults()
	s := &Submitter{
		db:    db,
		cfg:   cfg,
		queue: make(chan pending, cfg.QueueDepth),
		runq:  make(chan []pending, 1),
		compl: make(chan []pending, 4),
		done:  make(chan struct{}),
	}
	go s.formLoop()
	go s.runLoop()
	return s
}

// Submit queues a Caracal-style transaction (declared write set) for the
// next epoch of its flavour. The returned future resolves once the epoch is
// durable. A Txn must not be submitted again before its future resolves.
func (s *Submitter) Submit(t *core.Txn) (*Future, error) {
	if t == nil {
		return nil, errors.New("submit: nil txn")
	}
	// Lifecycle sampling starts here: a sampled transaction's span rides the
	// Txn through seal, epoch assignment, execution, and commit, giving the
	// breakdown its queue phase. Sample() is a single atomic increment for
	// the unsampled majority and a no-op when tracing is off.
	sp := s.db.Obs().TxnTrace().Sample()
	if sp != nil {
		sp.MarkSubmit()
	}
	// Attach even a nil span: that records the sampling decision, so the
	// engine's hand-batch fallback does not draw a second time.
	t.SetSpan(sp)
	f := newFuture()
	if err := s.enqueue(pending{txn: t, fut: f}); err != nil {
		t.SetSpan(nil)
		return nil, err
	}
	return f, nil
}

// SubmitAria queues an Aria-style transaction (no declared write set).
// Conflict losers are resubmitted automatically; the future resolves when
// the transaction finally commits or user-aborts.
func (s *Submitter) SubmitAria(t *core.AriaTxn) (*Future, error) {
	if t == nil {
		return nil, errors.New("submit: nil txn")
	}
	f := newFuture()
	if err := s.enqueue(pending{aria: t, fut: f}); err != nil {
		return nil, err
	}
	return f, nil
}

// Close stops accepting submissions, drains every queued transaction
// through final epochs (including Aria redo backlogs), waits for the
// background goroutines to exit, and returns the sticky engine failure, if
// any. Close is idempotent.
func (s *Submitter) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	<-s.done
	return s.failure()
}

// Err returns the sticky engine failure, or nil while the submitter is
// healthy.
func (s *Submitter) Err() error { return s.failure() }

func (s *Submitter) enqueue(p pending) error {
	// The read lock excludes a concurrent Close between the closed check
	// and the channel send: Close takes the write lock before closing the
	// queue, so a send that passed the check cannot hit a closed channel.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.failure(); err != nil {
		return err
	}
	if s.cfg.Overload == Reject {
		select {
		case s.queue <- p:
			return nil
		default:
			s.db.Obs().Flight().Record(obs.EvBackpressure, obs.CoordinatorCore, 0, int64(cap(s.queue)), 0)
			return ErrOverloaded
		}
	}
	select {
	case s.queue <- p:
		return nil
	default:
		// The queue is full and this client is about to block: record the
		// backpressure once, then wait.
		s.db.Obs().Flight().Record(obs.EvBackpressure, obs.CoordinatorCore, 0, int64(cap(s.queue)), 0)
	}
	select {
	case s.queue <- p:
		return nil
	case <-s.done:
		return ErrClosed
	}
}

func (s *Submitter) failure() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

func (s *Submitter) setFailure(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.failMu.Unlock()
}

// formLoop is the batch former: it groups queued submissions into
// single-flavour batches, dispatched when the runner is idle or bounded by
// MaxBatch and MaxDelay while it is busy, folds Aria redo backlogs in
// ahead of new work, and hands batches to the runner.
func (s *Submitter) formLoop() {
	var (
		cur         []pending // forming batch, all one flavour
		curAria     bool
		redo        []pending // Aria conflict losers awaiting resubmission
		outstanding int       // batches dispatched but not yet completed
		timer       *time.Timer
		timerC      <-chan time.Time
	)

	armTimer := func() {
		if timer == nil {
			timer = time.NewTimer(s.cfg.MaxDelay)
		} else {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(s.cfg.MaxDelay)
		}
		timerC = timer.C
	}
	disarmTimer := func() {
		if timer != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerC = nil
	}
	complete := func(deferred []pending) {
		outstanding--
		redo = append(redo, deferred...)
	}
	// dispatch hands the forming batch to the runner. It keeps consuming
	// completions while blocked so the runner can never deadlock against a
	// full completion channel.
	dispatch := func() {
		if len(cur) == 0 {
			return
		}
		b := cur
		cur = nil
		disarmTimer()
		// The batch is sealed: stamp the sampled spans' seal time, ending
		// their queue phase. MarkSeal is a no-op on the unsampled majority.
		for i := range b {
			if b[i].txn != nil {
				b[i].txn.Span().MarkSeal()
			}
		}
		for {
			select {
			case s.runq <- b:
				outstanding++
				return
			case d := <-s.compl:
				complete(d)
			}
		}
	}
	// foldRedo moves the redo backlog into the forming batch, flushing a
	// Caracal batch out of the way first. The MaxBatch cap counts redo
	// entries like any other submission.
	foldRedo := func() {
		for len(redo) > 0 {
			if len(cur) > 0 && !curAria {
				dispatch()
			}
			curAria = true
			for len(redo) > 0 && len(cur) < s.cfg.MaxBatch {
				cur = append(cur, redo[0])
				redo[0] = pending{}
				redo = redo[1:]
			}
			if len(cur) >= s.cfg.MaxBatch {
				dispatch()
				continue
			}
			if timerC == nil {
				armTimer()
			}
			return
		}
	}

	// add appends one submission to the forming batch, splitting at flavour
	// boundaries and dispatching a full batch.
	add := func(p pending) {
		isAria := p.aria != nil
		if len(cur) > 0 && isAria != curAria {
			dispatch()
		}
		if len(cur) == 0 {
			curAria = isAria
			armTimer()
		}
		cur = append(cur, p)
		if len(cur) >= s.cfg.MaxBatch {
			dispatch()
		}
	}
	// dispatchIfIdle closes the forming batch when no epoch is outstanding:
	// waiting for more submissions would only add latency, since nothing
	// else is using the engine. It first takes in whatever is already
	// queued, up to MaxBatch. Only the former receives from the queue, so
	// the len snapshot never over-reads, and a closed queue still yields
	// its buffered entries.
	dispatchIfIdle := func() {
		for n := len(s.queue); n > 0 && outstanding == 0 && len(cur) < s.cfg.MaxBatch; n-- {
			add(<-s.queue)
		}
		if outstanding == 0 {
			dispatch()
		}
	}

	for {
		foldRedo()
		dispatchIfIdle()
		select {
		case p, ok := <-s.queue:
			if !ok {
				// Shutdown: flush the tail, then run redo backlogs to
				// exhaustion. Every redo epoch commits at least its
				// smallest-SID transaction, so this terminates.
				dispatch()
				for outstanding > 0 || len(redo) > 0 {
					foldRedo()
					dispatch()
					if outstanding > 0 {
						complete(<-s.compl)
					}
				}
				close(s.runq)
				return
			}
			add(p)
		case <-timerC:
			timerC = nil
			dispatch()
		case d := <-s.compl:
			complete(d)
		}
	}
}

// runLoop executes batches in order and resolves their futures. It reports
// each completion (with any Aria deferrals) back to the former.
func (s *Submitter) runLoop() {
	defer close(s.done)
	for b := range s.runq {
		var deferred []pending
		if s.failure() != nil {
			// Engine already failed: these batches never reached the input
			// log.
			failAll(b, ErrNeverSubmitted)
		} else {
			deferred = s.runBatch(b)
		}
		s.compl <- deferred
	}
}

// runBatch runs one epoch, surviving engine panics (injected device
// crashes) by converting them into a sticky failure and resolving the
// batch's futures with ErrEpochFailed.
func (s *Submitter) runBatch(b []pending) (deferred []pending) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: panic: %v", ErrEpochFailed, r)
			s.setFailure(err)
			failAll(b, err)
			deferred = nil
		}
	}()
	if b[0].aria != nil {
		return s.runAria(b)
	}
	s.runCaracal(b)
	return nil
}

func (s *Submitter) runCaracal(b []pending) {
	batch := make([]*core.Txn, len(b))
	for i := range b {
		batch[i] = b[i].txn
	}
	res, err := s.db.RunEpoch(batch)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrEpochFailed, err)
		s.setFailure(err)
		failAll(b, err)
		return
	}
	for i := range b {
		t := b[i].txn
		b[i].fut.resolve(Result{Epoch: res.Epoch, SID: t.SID(), Committed: !t.Aborted()})
	}
}

func (s *Submitter) runAria(b []pending) []pending {
	batch := make([]*core.AriaTxn, len(b))
	futs := make(map[*core.AriaTxn]*Future, len(b))
	for i := range b {
		batch[i] = b[i].aria
		futs[b[i].aria] = b[i].fut
	}
	res, err := s.db.RunEpochAria(batch)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrEpochFailed, err)
		s.setFailure(err)
		failAll(b, err)
		return nil
	}
	deferred := make([]pending, 0, len(res.Deferred))
	for _, t := range res.Deferred {
		deferred = append(deferred, pending{aria: t, fut: futs[t]})
		delete(futs, t)
	}
	for t, f := range futs {
		f.resolve(Result{Epoch: res.Epoch, SID: t.SID(), Committed: !t.Aborted()})
	}
	return deferred
}

func failAll(b []pending, err error) {
	for i := range b {
		b[i].fut.resolve(Result{Err: err})
	}
}
