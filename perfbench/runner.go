package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"nvcaracal"
	"nvcaracal/internal/obs"
)

// options selects one run of the benchmark.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // directory for the Chrome trace; "" writes none
	sc       scale
	// corrupt damages one persisted row value after recovery and before the
	// output check, proving the check is live (self-test only).
	corrupt bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stageNames are the EpochResult stages, in the order they tile an epoch.
var stageNames = []string{"core.log", "core.init", "core.exec", "core.sync", "core.commit"}

// window is what the measured window produced.
type window struct {
	elapsed   time.Duration
	done      int64 // committed plus user-aborted transactions
	attempted int64
	failed    int64
	// Ack latency percentiles, ns: over the window's epochs on a closed
	// loop; on the open loop, the quietQuantile-th percentile over the
	// schedule's ackSlice-long slices of each slice's percentile over its
	// transactions.
	ackP50, ackP90 float64
	late           []float64        // open loop: how late each send was, ns
	calls          []float64        // open loop, traced: time inside Submit, ns
	epochs         int64            // epochs the window ran
	first          uint64           // first epoch of the window
	sample         []*nvcaracal.Txn // one epoch's worth of the window's transactions
	// Stage and epoch wall time summed over stageN epochs.
	stageSum [5]time.Duration
	epochSum time.Duration
	stageN   int64
	checkErr error // a failed output check, wrapping errMismatch
	// trace-overhead bookkeeping: [untraced, traced] time and transactions.
	tTime [2]time.Duration
	tTxns [2]int64
}

func (w *window) tps() float64 { return ratio(float64(w.done), w.elapsed.Seconds()) }

func (w *window) overhead() float64 {
	untraced := ratio(float64(w.tTxns[0]), w.tTime[0].Seconds())
	traced := ratio(float64(w.tTxns[1]), w.tTime[1].Seconds())
	return 1 - ratio(traced, untraced)
}

// run executes one benchmark run. A failed output check returns the result
// (Correct false) together with an error wrapping errMismatch.
func run(o options) (*result, error) {
	sp, err := newSpec(o.workload, o.sc, o.window)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		if sp.openLoop {
			// The Submitter runs the epochs, so their EpochResult stages
			// reach the benchmark only through the engine's phase tracer and
			// flight recorder, which carry the same durations.
			sp.cfg.Obs = nvcaracal.NewObs(nvcaracal.ObsConfig{
				Trace: true, TraceSpansPerCore: 1 << 16, FlightPerStripe: 1 << 16,
			})
		}
	}

	// Set up several times and keep the last instance; setup_s is the
	// median. Every set-up draws from a fresh generator with the same seed,
	// so all of them build the same state.
	setups := o.sc.setups
	if o.trace {
		setups = 1
	}
	var (
		db     *nvcaracal.DB
		dev    *nvcaracal.Device
		h      *history
		rng    *rand.Rand
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if i > 0 {
			db, dev, h = nil, nil, nil
			freeMemory()
		}
		rng = rand.New(rand.NewSource(o.seed))
		t0 := time.Now()
		db, dev, h, err = setup(sp, o.sc, rng)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	// Collect the set-up's garbage now rather than inside the window.
	freeMemory()

	stats0, met0, log0 := dev.Stats(), db.Metrics(), db.LogBytesTotal()
	var w *window
	if sp.openLoop {
		w, err = openLoop(db, sp, o.sc, rng, o.window, h, tr)
	} else {
		w, err = closedLoop(db, sp, o.sc, rng, o.sc.windowEpochs(o.window), h, tr)
	}
	if err != nil {
		return nil, err
	}
	stats := dev.Stats().Sub(stats0)
	met := db.Metrics().Sub(met0)
	walBytes := db.LogBytesTotal() - log0
	mem := db.Memory()
	rowCount := db.RowCount()
	if tr != nil && sp.openLoop {
		engineSpans(tr, sp.cfg.Obs, w, h.last())
	}

	cr, err := crashAndRecover(db, dev, sp, o, rng, h, tr)
	if err != nil {
		return nil, err
	}
	db, dev = nil, nil
	freeMemory()

	checkErr := errors.Join(w.checkErr, cr.checkErr, verify(sp, h, cr.epoch, cr.digest))
	if checkErr != nil && !errors.Is(checkErr, errMismatch) {
		return nil, checkErr
	}

	res := &result{
		Correct:   checkErr == nil,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   map[string]metricValue{},
	}
	put := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
	}
	txns := float64(w.done)
	if !o.trace {
		put(endToEnd, map[string]float64{
			"throughput_tps":               w.tps(),
			"ack_p50_ms":                   w.ackP50 / 1e6,
			"ack_p90_ms":                   w.ackP90 / 1e6,
			"recovery_s":                   cr.recovery.Seconds(),
			"setup_s":                      median(setupS),
			"nvmm_writeback_bytes_per_txn": ratio(float64(stats.Flushes*64), float64(met.TxnsCommitted)),
			"dram_mb":                      float64(mem.DRAMTotal()) / mib,
			"nvmm_mb":                      float64(mem.NVMMTotal()) / mib,
		})
		return res, checkErr
	}

	cells, err := layerCells(sp, o.sc, w.sample)
	if err != nil {
		return nil, fmt.Errorf("layer cells: %w", err)
	}
	epochs := float64(met.Epochs)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perEpochMS := func(d time.Duration) float64 { return ratio(ms(d), float64(w.stageN)) }
	charged := time.Duration(stats.LineReads)*readLatency + time.Duration(stats.LineWrites)*writeLatency +
		time.Duration(stats.Fences)*fenceLatency
	self := tr.selfTimes()
	vals := map[string]float64{
		"core.log_ms":              perEpochMS(w.stageSum[0]),
		"core.init_ms":             perEpochMS(w.stageSum[1]),
		"core.exec_ms":             perEpochMS(w.stageSum[2]),
		"core.sync_ms":             perEpochMS(w.stageSum[3]),
		"core.commit_ms":           perEpochMS(w.stageSum[4]),
		"core.epoch_ms":            perEpochMS(w.epochSum),
		"core.self_ms":             ms(self["core"]),
		"core.transient_share":     met.TransientShare(),
		"core.cache_hit_ratio":     ratio(float64(met.CacheHits), float64(met.CacheHits+met.CacheMisses)),
		"core.row_reads_per_txn":   ratio(float64(met.RowReads), txns),
		"core.minor_gcs_per_epoch": ratio(float64(met.MinorGCs), epochs),
		"core.major_gcs_per_epoch": ratio(float64(met.MajorGCs), epochs),
		"core.abort_share":         ratio(float64(met.TxnsAborted), float64(met.TxnsCommitted+met.TxnsAborted)),

		"nvm.line_reads_per_txn":        ratio(float64(stats.LineReads), txns),
		"nvm.line_writes_per_txn":       ratio(float64(stats.LineWrites), txns),
		"nvm.writebacks_per_txn":        ratio(float64(stats.Flushes), txns),
		"nvm.writebacks_elided_per_txn": ratio(float64(stats.FlushesElided), txns),
		"nvm.fences_per_epoch":          ratio(float64(stats.Fences), epochs),
		"nvm.lines_per_fence":           ratio(float64(stats.LinesFenced), float64(stats.Fences)),
		// Device-model time as a share of the window's CPU capacity: an
		// upper bound, since multi-line stores get a sequential discount.
		"nvm.charged_share": ratio(charged.Seconds(), w.elapsed.Seconds()*float64(sp.cfg.Cores)),

		"wal.bytes_per_txn": ratio(float64(walBytes), txns),

		"pmem.row_mb":             float64(mem.RowBytes) / mib,
		"pmem.value_mb":           float64(mem.ValueBytes) / mib,
		"pmem.bytes_per_live_row": ratio(float64(mem.RowBytes+mem.ValueBytes), float64(rowCount)),
		"index.bytes_per_row":     ratio(float64(mem.IndexBytes), float64(rowCount)),
		"arena.transient_peak_mb": float64(mem.TransientPeak) / mib,

		"recovery.load_ms":       ms(cr.report.LoadTime),
		"recovery.scan_ms":       ms(cr.report.ScanTime),
		"recovery.revert_ms":     ms(cr.report.RevertTime),
		"recovery.replay_ms":     ms(cr.report.ReplayTime),
		"recovery.self_ms":       ms(self["recovery"]),
		"recovery.rows_scanned":  float64(cr.report.RowsScanned),
		"recovery.rows_repaired": float64(cr.report.RowsRepaired),
		"recovery.txns_replayed": float64(cr.report.TxnsReplayed),

		"bench.gen_late_p99_ms":      percentile(w.late, 99) / 1e6,
		"bench.gen_late_max_ms":      percentile(w.late, 100) / 1e6,
		"bench.self_ms":              ms(self["bench"]),
		"bench.trace_overhead_share": w.overhead(),
		"submit.self_ms":             ms(self["submit"]),
	}
	if sp.openLoop {
		vals["submit.txns_per_epoch"] = ratio(txns, float64(w.epochs))
		vals["submit.epochs_per_s"] = ratio(float64(w.epochs), w.elapsed.Seconds())
		vals["submit.call_p99_us"] = percentile(w.calls, 99) / 1e3
	}
	for name, c := range cells {
		switch name {
		case "pmem.checkpoint", "wal.write_epoch":
			vals[name+"_us"] = c.ns / 1e3
		default:
			vals[name+"_ns"] = c.ns
		}
		vals[name+"_allocs"] = c.allocs
	}
	put(perLayer, vals)
	if o.out != "" {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", o.out, o.workload, o.seed)
		if err := tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, checkErr
}

// freeMemory returns the previous instance's memory before the next one is
// built, so set-ups do not stack.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setup opens a database on a fresh device, bulk-loads it, and warms it
// with hand-batched epochs until the version cache is in steady state.
func setup(sp *spec, sc scale, rng *rand.Rand) (*nvcaracal.DB, *nvcaracal.Device, *history, error) {
	db, dev, err := nvcaracal.OpenWithDevice(sp.cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	h := &history{}
	runBatch := func(b []*nvcaracal.Txn) error {
		res, err := db.RunEpoch(b)
		if err != nil {
			return err
		}
		h.add(res.Epoch, b)
		return nil
	}
	for _, b := range sp.load() {
		if err := runBatch(b); err != nil {
			return nil, nil, nil, fmt.Errorf("load: %w", err)
		}
	}
	for i := 0; i < sc.warmEpochs; i++ {
		if err := runBatch(sp.gen(rng, db, sc.epochTxns)); err != nil {
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return db, dev, h, nil
}

// closedLoop hand-batches a fixed number of epochs back to back and times
// each RunEpoch; generating a batch is client work and is not timed. Every
// transaction of an epoch is acknowledged when RunEpoch returns with the
// epoch durable, so its ack latency is the epoch's latency. A traced run
// traces every other epoch, which yields the tracing overhead.
func closedLoop(db *nvcaracal.DB, sp *spec, sc scale, rng *rand.Rand, epochs int,
	h *history, tr *tracer) (*window, error) {
	w := &window{}
	var durs []float64
	for i := 0; i < epochs; i++ {
		traced := tr != nil && i%2 == 1
		g0 := time.Now()
		batch := sp.gen(rng, db, sc.epochTxns)
		t0 := time.Now()
		res, err := db.RunEpoch(batch)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("epoch: %w", err)
		}
		h.add(res.Epoch, batch)
		if w.sample == nil {
			w.first, w.sample = res.Epoch, batch
		}
		n := int64(res.Committed + res.Aborted)
		w.elapsed += d
		w.done += n
		w.attempted += int64(len(batch))
		w.epochs++
		w.stageN++
		w.epochSum += d
		stages := []time.Duration{res.LogTime, res.InitTime, res.ExecTime, res.SyncTime, res.CommitTime}
		for k, s := range stages {
			w.stageSum[k] += s
		}
		durs = append(durs, float64(d))
		if tr == nil {
			continue
		}
		k := 0
		if traced {
			k = 1
			root := tr.add("bench.iteration", 0, trackClient, g0, t0.Add(d).Sub(g0))
			tr.add("bench.gen", root, trackClient, g0, t0.Sub(g0))
			id := tr.add("core.epoch", root, trackClient, t0, d)
			tr.addStages(id, trackClient, t0, stageNames, stages)
			sampleCounters(tr, db, t0.Add(d))
		}
		w.tTime[k] += d
		w.tTxns[k] += n
	}
	// All batches are the same size, so percentiles over epochs are
	// percentiles over transactions.
	w.ackP50, w.ackP90 = percentile(durs, 50), percentile(durs, 90)
	return w, nil
}

// sampleCounters snapshots the device and engine counters into the trace.
func sampleCounters(tr *tracer, db *nvcaracal.DB, at time.Time) {
	s, m := db.Device().Stats(), db.Metrics()
	tr.sample(at, map[string]any{
		"nvm.line_reads": float64(s.LineReads), "nvm.line_writes": float64(s.LineWrites),
		"nvm.writebacks": float64(s.Flushes), "nvm.fences": float64(s.Fences),
		"core.cache_hits": float64(m.CacheHits), "core.cache_misses": float64(m.CacheMisses),
		"core.transient_versions":  float64(m.TransientVersions),
		"core.persistent_versions": float64(m.PersistentVersions),
	})
}

// The open loop's ack percentiles are taken in each ackSlice of the
// schedule (250 transactions at 10k txn/s, so 25 beyond the p90) and
// reported at the quietQuantile-th percentile over the slices. Time the
// hypervisor steals for other tenants of the host only ever adds latency,
// in bursts of a few milliseconds through periods that outlast whole runs,
// and it reaches the serving path at every goroutine hand-off. A run's
// quietest slices are the ones the bursts missed, while a slower epoch,
// hand-off or fence shows in every slice.
const (
	ackSlice      = 25 * time.Millisecond
	quietQuantile = 5
)

// ack is what the collector observed for one submission.
type ack struct {
	res nvcaracal.SubmitResult
	at  time.Time
	ok  bool
}

// openLoop offers pre-generated transactions to a Submitter at a fixed
// rate from one generator goroutine, whatever the engine's progress. Each
// transaction's ack latency runs from its scheduled send time to its
// future resolving, so a stall also charges the sends queued behind it.
// A traced run traces alternate half-second slices of the schedule.
func openLoop(db *nvcaracal.DB, sp *spec, sc scale, rng *rand.Rand, dur time.Duration,
	h *history, tr *tracer) (*window, error) {
	n := int(sc.sbRate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	txns := make([]*nvcaracal.Txn, n)
	for i := range txns {
		txns[i] = sp.gen(rng, db, 1)[0]
	}
	interval := time.Duration(float64(time.Second) / sc.sbRate)
	const slice = 500 * time.Millisecond
	tracedAt := func(due time.Duration) bool { return tr != nil && (due/slice)%2 == 1 }

	sub := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{MaxBatch: sc.sbMaxBatch, MaxDelay: sc.sbMaxDelay})
	type sent struct {
		i      int
		fut    *nvcaracal.Future
		traced bool
		ret    time.Time // when Submit returned
	}
	acks := make([]ack, n)
	var lateAck int64 // acks whose epoch was not yet durable when observed
	// Sized to the number of sends, so the generator never blocks on it.
	ch := make(chan sent, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for s := range ch {
			<-s.fut.Done()
			at := time.Now()
			r := s.fut.Wait()
			if r.Err == nil && r.Epoch > db.DurableEpoch() {
				lateAck++
			}
			acks[s.i] = ack{res: r, at: at, ok: r.Err == nil}
			if s.traced {
				tr.addWait("submit.ack_wait", 0, trackAcks, s.ret, at.Sub(s.ret))
				if r.Epoch != last {
					sampleCounters(tr, db, at)
				}
			}
			last = r.Epoch
		}
	}()

	w := &window{attempted: int64(n)}
	// The tracer's spans slice is shared with the collector, so the
	// generator buffers its own spans and adds them after the collector
	// has exited.
	type call struct {
		start time.Time
		dur   time.Duration
		idx   time.Duration // index of the schedule slice it was due in
	}
	var calls []call
	start := time.Now().Add(time.Millisecond)
	for i, t := range txns {
		due := time.Duration(i) * interval
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		c0 := time.Now()
		w.late = append(w.late, float64(c0.Sub(start.Add(due))))
		fut, err := sub.Submit(t)
		ret := time.Now()
		traced := tracedAt(due)
		if traced {
			calls = append(calls, call{c0, ret.Sub(c0), due / slice})
			w.calls = append(w.calls, float64(ret.Sub(c0)))
		}
		if err != nil {
			w.failed++
			continue
		}
		ch <- sent{i: i, fut: fut, traced: traced, ret: ret}
	}
	close(ch)
	wg.Wait()
	if err := sub.Close(); err != nil {
		return nil, fmt.Errorf("submitter: %w", err)
	}
	// Each traced slice is a root span over the generator's time, with the
	// Submit calls made in it as children.
	roots := map[time.Duration]int32{}
	for _, c := range calls {
		k := c.idx
		if roots[k] == 0 {
			roots[k] = tr.add("bench.slice", 0, trackClient, start.Add(k*slice), slice)
		}
		tr.add("submit.call", roots[k], trackClient, c.start, c.dur)
	}

	// Regroup the acknowledged transactions into their epochs, in SID
	// order, for the reference replay.
	order := make([]int, 0, n)
	var lastAt time.Time
	// One ackSlice of the schedule, in transactions.
	chunk := max(int(sc.sbRate*ackSlice.Seconds()), 1)
	var lat, p50s, p90s []float64
	for i, a := range acks {
		if i%chunk == 0 && len(lat) > 0 {
			p50s, p90s = append(p50s, percentile(lat, 50)), append(p90s, percentile(lat, 90))
			lat = lat[:0]
		}
		if a.at.IsZero() {
			continue // Submit failed; counted above
		}
		if !a.ok {
			w.failed++
			continue
		}
		order = append(order, i)
		w.done++
		due := start.Add(time.Duration(i) * interval)
		lat = append(lat, float64(a.at.Sub(due)))
		if a.at.After(lastAt) {
			lastAt = a.at
		}
		k := 0
		if tracedAt(time.Duration(i) * interval) {
			k = 1
		}
		w.tTxns[k]++
	}
	if len(lat) > 0 {
		p50s, p90s = append(p50s, percentile(lat, 50)), append(p90s, percentile(lat, 90))
	}
	w.ackP50, w.ackP90 = percentile(p50s, quietQuantile), percentile(p90s, quietQuantile)
	w.elapsed = lastAt.Sub(start)
	// Both halves of a traced schedule span equal time.
	w.tTime[0], w.tTime[1] = w.elapsed/2, w.elapsed/2
	sort.Slice(order, func(a, b int) bool { return acks[order[a]].res.SID < acks[order[b]].res.SID })
	for lo := 0; lo < len(order); {
		epoch := acks[order[lo]].res.Epoch
		hi := lo
		for hi < len(order) && acks[order[hi]].res.Epoch == epoch {
			hi++
		}
		batch := make([]*nvcaracal.Txn, 0, hi-lo)
		for _, i := range order[lo:hi] {
			batch = append(batch, txns[i])
		}
		h.add(epoch, batch)
		if w.epochs == 0 {
			w.first = epoch
		}
		w.epochs++
		lo = hi
	}
	w.sample = txns[:min(sc.epochTxns, n)]
	if lateAck > 0 {
		w.checkErr = fmt.Errorf("%w: %d acks resolved before their epoch was durable", errMismatch, lateAck)
	}
	return w, nil
}

// engineSpans adds the epochs the Submitter ran during the window to the
// trace, rebuilt from the engine's phase spans (log, init, execute,
// persist) and its durable-publish events (the commit part of persist),
// and fills the window's stage sums from them. last is the window's last
// epoch.
func engineSpans(tr *tracer, o *nvcaracal.Obs, w *window, last uint64) {
	commit := map[uint64]time.Duration{}
	for _, e := range o.Flight().Events(0) {
		if e.Type == obs.EvDurablePublish {
			commit[e.Epoch] = time.Duration(e.A)
		}
	}
	type epochSpans struct {
		start time.Time
		durs  [4]time.Duration // log, init, exec, persist
	}
	byEpoch := map[uint64]*epochSpans{}
	for _, s := range o.Tracer().Spans(0) {
		if s.Core != obs.CoordinatorCore || s.Epoch < w.first || s.Epoch > last || s.Phase > obs.PhasePersist {
			continue
		}
		es := byEpoch[s.Epoch]
		if es == nil {
			es = &epochSpans{}
			byEpoch[s.Epoch] = es
		}
		if s.Phase == obs.PhaseLog {
			es.start = time.Unix(0, s.Start)
		}
		es.durs[s.Phase] = time.Duration(s.Dur)
	}
	for epoch, es := range byEpoch {
		c := min(commit[epoch], es.durs[3])
		stages := []time.Duration{es.durs[0], es.durs[1], es.durs[2], es.durs[3] - c, c}
		var total time.Duration
		for k, d := range stages {
			w.stageSum[k] += d
			total += d
		}
		w.epochSum += total
		id := tr.add("core.epoch", 0, trackEngine, es.start, total)
		tr.addStages(id, trackEngine, es.start, stageNames, stages)
	}
	w.stageN = int64(len(byEpoch))
}

// crashOutcome is what the crash phase leaves for the output check.
type crashOutcome struct {
	epoch, digest uint64 // of the final recovered database
	recovery      time.Duration
	report        *nvcaracal.RecoveryReport // of the median recovery
	checkErr      error                     // invariant violations, wrapping errMismatch
}

// crashAndRecover runs after the window: two committed probe epochs measure
// an epoch's write-backs. Then, in each crash cycle, a fail-point crashes
// the next epoch three quarters of the way through its write-backs (after
// its input log is durable), the device drops every line not fenced, and
// Recover rebuilds the database and replays that epoch. recovery_s is the
// median Recover time; the final recovered database is checked.
func crashAndRecover(db *nvcaracal.DB, dev *nvcaracal.Device, sp *spec, o options, rng *rand.Rand,
	h *history, tr *tracer) (*crashOutcome, error) {
	n := o.sc.epochTxns
	before := dev.Stats()
	for i := 0; i < 2; i++ {
		b := sp.gen(rng, db, n)
		res, err := db.RunEpoch(b)
		if err != nil {
			return nil, fmt.Errorf("probe epoch: %w", err)
		}
		h.add(res.Epoch, b)
	}
	perEpoch := dev.Stats().Sub(before).Flushes / 2

	type recovery struct {
		dur time.Duration
		rep *nvcaracal.RecoveryReport
	}
	var recs []recovery
	for c := 0; c < crashes; c++ {
		var crashed []*nvcaracal.Txn
		after := max(perEpoch*3/4, 1)
		for attempt := 0; attempt < 3 && crashed == nil; attempt++ {
			b := sp.gen(rng, db, n)
			fired, res, err := runWithFailPoint(db, dev, b, after)
			if err != nil {
				return nil, fmt.Errorf("crash epoch: %w", err)
			}
			if fired {
				crashed = b
			} else {
				h.add(res.Epoch, b)
				after = max(after/2, 1)
			}
		}
		if crashed == nil {
			return nil, errors.New("crash epoch: the fail-point never fired")
		}
		crashEpoch := h.last() + 1
		dev.Crash(nvcaracal.CrashStrict, o.seed)
		// A crashed process loses its heap; collect the dead instance so
		// Recover starts as a restarted process would.
		db = nil
		runtime.GC()

		t0 := time.Now()
		rdb, rep, err := nvcaracal.Recover(dev, sp.cfg)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if tr != nil {
			id := tr.add("recovery.Recover", 0, trackRecovery, t0, d)
			tr.addStages(id, trackRecovery, t0,
				[]string{"recovery.load", "recovery.scan", "recovery.revert", "recovery.replay"},
				[]time.Duration{rep.LoadTime, rep.ScanTime, rep.RevertTime, rep.ReplayTime})
		}
		switch rep.ReplayedEpoch {
		case 0:
		case crashEpoch:
			h.add(crashEpoch, crashed)
		default:
			return nil, fmt.Errorf("recover replayed epoch %d, crashed epoch was %d", rep.ReplayedEpoch, crashEpoch)
		}
		db = rdb
		recs = append(recs, recovery{d, rep})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].dur < recs[j].dur })
	mid := recs[len(recs)/2]
	cr := &crashOutcome{recovery: mid.dur, report: mid.rep}

	if o.corrupt {
		if err := corruptRow(db, dev, sp); err != nil {
			return nil, err
		}
	}
	cr.epoch, cr.digest = db.Epoch(), db.LogicalDigest()
	if err := db.CheckInvariants(); err != nil {
		cr.checkErr = fmt.Errorf("%w: invariants after recovery: %v", errMismatch, err)
	}
	return cr, nil
}

// runWithFailPoint runs one epoch with a fail-point armed after the given
// number of write-backs and reports whether the injected crash fired.
func runWithFailPoint(db *nvcaracal.DB, dev *nvcaracal.Device, b []*nvcaracal.Txn, after int64) (fired bool, res nvcaracal.EpochResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvcaracal.ErrInjectedCrash {
				panic(r)
			}
			fired = true
		}
	}()
	dev.SetFailAfter(after)
	res, err = db.RunEpoch(b)
	dev.SetFailAfter(0)
	return false, res, err
}

// corruptRow flips one byte of a persisted row value in place, through the
// device, the way a media fault would.
func corruptRow(db *nvcaracal.DB, dev *nvcaracal.Device, sp *spec) error {
	op := sp.load()[0][0].Ops[0]
	v, ok := db.Get(op.Table, op.Key)
	if !ok {
		return fmt.Errorf("corrupt: row %d/%d missing", op.Table, op.Key)
	}
	pos := bytes.Index(dev.Slice(0, dev.Size()), v)
	if pos < 0 {
		return fmt.Errorf("corrupt: value of row %d/%d not found on the device", op.Table, op.Key)
	}
	dev.WriteAt([]byte{^v[0]}, int64(pos))
	return nil
}
