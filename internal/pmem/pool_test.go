package pmem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nvcaracal/internal/nvm"
)

func testLayout(t *testing.T) (Layout, *nvm.Device) {
	t.Helper()
	l := Layout{
		Cores:         2,
		RowSize:       256,
		RowsPerCore:   64,
		ValueSize:     512,
		ValuesPerCore: 64,
		RingCap:       256,
		LogBytes:      4096,
		Counters:      4,
	}
	if err := l.Finalize(); err != nil {
		t.Fatal(err)
	}
	dev := nvm.New(l.TotalBytes())
	if err := Format(dev, l); err != nil {
		t.Fatal(err)
	}
	return l, dev
}

func TestFormatAttach(t *testing.T) {
	l, dev := testLayout(t)
	if _, err := Attach(dev, l); err != nil {
		t.Fatalf("attach: %v", err)
	}
}

func TestAttachUnformatted(t *testing.T) {
	l := DefaultLayout(1, 16, 16)
	dev := nvm.New(l.TotalBytes())
	if _, err := Attach(dev, l); err == nil {
		t.Fatal("attach to unformatted device succeeded")
	}
}

func TestAttachParamMismatch(t *testing.T) {
	l, dev := testLayout(t)
	bad := l
	bad.RowsPerCore = 128
	if err := bad.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dev, bad); err == nil {
		t.Fatal("attach with mismatched params succeeded")
	}
}

func TestLayoutValidation(t *testing.T) {
	cases := []func(*Layout){
		func(l *Layout) { l.Cores = 0 },
		func(l *Layout) { l.RowSize = 100 }, // not line multiple
		func(l *Layout) { l.ValueSize = 0 },
		func(l *Layout) { l.RowsPerCore = 0 },
		func(l *Layout) { l.RingCap = 0 },
		func(l *Layout) { l.LogBytes = 16 },
		func(l *Layout) { l.Counters = -1 },
	}
	for i, mutate := range cases {
		l := DefaultLayout(1, 16, 16)
		mutate(&l)
		if err := l.Finalize(); err == nil {
			t.Errorf("case %d: bad layout accepted", i)
		}
	}
}

func TestBumpAllocSequential(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	prev := int64(-1)
	for i := 0; i < 10; i++ {
		off, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && off != prev+l.RowSize {
			t.Fatalf("alloc %d: off %d, want %d", i, off, prev+l.RowSize)
		}
		prev = off
	}
	if p.Bump() != 10 {
		t.Fatalf("bump = %d", p.Bump())
	}
}

func TestPoolExhaustion(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	for i := int64(0); i < l.RowsPerCore; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
}

func TestFreedSlotNotReusedBeforeCheckpoint(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	off, _ := p.Alloc()
	p.Free(off)
	// Invariant 2: the freed slot must come from the bump region, not the
	// just-freed entry.
	got, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got == off {
		t.Fatal("slot freed in current epoch was reallocated")
	}
}

func TestFreedSlotReusedAfterCheckpoint(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	off, _ := p.Alloc()
	p.Free(off)
	p.Checkpoint(1)
	dev.Fence()
	p.Checkpointed()
	got, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != off {
		t.Fatalf("alloc after checkpoint = %d, want recycled %d", got, off)
	}
}

// runEpoch checkpoints the pool and persists the epoch record the way the
// engine does at an epoch boundary.
func runCheckpoint(dev *nvm.Device, rec *EpochRecord, epoch uint64, pools ...*Pool) {
	for _, p := range pools {
		p.Checkpoint(epoch)
	}
	dev.Fence()
	rec.Store(epoch)
	for _, p := range pools {
		p.Checkpointed()
	}
}

func TestCrashRevertsUncheckpointedAllocations(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)

	// Epoch 1: allocate 3 slots and checkpoint.
	for i := 0; i < 3; i++ {
		p.Alloc()
	}
	runCheckpoint(dev, rec, 1, p)

	// Epoch 2: allocate 5 more, free one, crash without checkpoint.
	for i := 0; i < 5; i++ {
		p.Alloc()
	}
	off := p.dataOff // free the first slot
	p.Free(off)
	dev.Crash(nvm.CrashStrict, 42)

	ckpt := rec.Load()
	if ckpt != 1 {
		t.Fatalf("checkpointed epoch = %d, want 1", ckpt)
	}
	p2 := RowPool(dev, l, 0)
	gc := p2.Recover(ckpt, true)
	if len(gc) != 0 {
		t.Fatalf("unexpected GC frees: %v", gc)
	}
	if p2.Bump() != 3 {
		t.Fatalf("recovered bump = %d, want 3", p2.Bump())
	}
	if p2.FreeCount() != 0 {
		t.Fatalf("recovered free count = %d, want 0 (free was reverted)", p2.FreeCount())
	}
}

func TestCrashPreservesCheckpointedFrees(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)

	a, _ := p.Alloc()
	b, _ := p.Alloc()
	p.Free(a)
	p.Free(b)
	runCheckpoint(dev, rec, 1, p)

	// Epoch 2 consumes one free entry, then crashes.
	got, _ := p.Alloc()
	if got != a {
		t.Fatalf("alloc = %d, want %d", got, a)
	}
	dev.Crash(nvm.CrashStrict, 7)

	p2 := RowPool(dev, l, 0)
	p2.Recover(rec.Load(), true)
	// The consume must be reverted: both entries back on the list.
	if p2.FreeCount() != 2 {
		t.Fatalf("free count = %d, want 2", p2.FreeCount())
	}
	fs := p2.FreeSet()
	if _, ok := fs[a]; !ok {
		t.Errorf("slot %d missing from free set", a)
	}
	if _, ok := fs[b]; !ok {
		t.Errorf("slot %d missing from free set", b)
	}
}

func TestGCEntriesAdoptedAfterCrash(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)

	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)

	// Epoch 2: major GC frees a and b as stamped entries and fences them
	// durable (the init fence); then a transaction frees c (revertible);
	// then crash during execution.
	p.FreeGC(a, 2)
	p.FreeGC(b, 2)
	p.FlushRing()
	dev.Fence()
	p.Free(c)
	dev.Crash(nvm.CrashStrict, 9)

	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 2 || gc[0] != a || gc[1] != b {
		t.Fatalf("gc frees = %v, want [%d %d]", gc, a, b)
	}
	fs := p2.FreeSet()
	if _, ok := fs[a]; !ok {
		t.Error("GC-freed slot a lost")
	}
	if _, ok := fs[b]; !ok {
		t.Error("GC-freed slot b lost")
	}
	if _, ok := fs[c]; ok {
		t.Error("transaction free c survived crash (should revert)")
	}
	// Invariant: GC-freed slots must not be allocatable during replay of
	// the crashed epoch (tailCkpt is the old checkpoint tail).
	off, err := p2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if off == a || off == b {
		t.Fatalf("GC-freed slot %d reallocated during replay window", off)
	}
}

func TestGCEntriesNotAdoptedWithoutReplay(t *testing.T) {
	// Same durable GC entries as above, but the recovery decides the
	// crashed epoch will not be replayed (its log never became durable):
	// the entries must be reverted, not adopted, because the rows that
	// referenced the freed slots were never rewritten.
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)
	p.FreeGC(a, 2)
	p.FreeGC(b, 2)
	p.FlushRing()
	dev.Fence()
	dev.Crash(nvm.CrashStrict, 11)

	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), false)
	if len(gc) != 0 {
		t.Fatalf("gc frees adopted without replay: %v", gc)
	}
	if p2.FreeCount() != 0 {
		t.Fatalf("free count = %d, want 0 (frees of the vanished epoch reverted)", p2.FreeCount())
	}
}

func TestGCEntriesPartialLandingAdoptsPrefix(t *testing.T) {
	// Only the fenced prefix of the crashed epoch's GC entries survives a
	// strict crash; the scan must adopt exactly that prefix.
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)
	p.FreeGC(a, 2)
	p.FlushRing()
	dev.Fence()
	p.FreeGC(b, 2) // written but never flushed: lost in a strict crash
	dev.Crash(nvm.CrashStrict, 13)

	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 1 || gc[0] != a {
		t.Fatalf("gc frees = %v, want [%d]", gc, a)
	}
}

func TestGCEntriesIgnoredWhenStale(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	// Epoch 1's GC entry, durable and then consumed by epoch 1's
	// checkpoint: the recovery scan for epoch 2's entries starts past it.
	p.FreeGC(a, 1)
	p.FlushRing()
	dev.Fence()
	runCheckpoint(dev, rec, 1, p)
	// Crash in epoch 2 before its GC appends anything.
	dev.Crash(nvm.CrashStrict, 3)
	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 0 {
		t.Fatalf("stale GC entries adopted: %v", gc)
	}
	if p2.FreeCount() != 1 {
		t.Fatalf("free count = %d, want 1", p2.FreeCount())
	}
}

func TestGCEntryWrongEpochNotAdopted(t *testing.T) {
	// A durable GC entry stamped for the wrong epoch (here: the already
	// checkpointed epoch 1, sitting beyond the checkpointed tail after a
	// torn checkpoint sequence) must fail the stamp check.
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)
	p.FreeGC(a, 1) // stamped epoch 1; recovery of ckpt=1 adopts only epoch-2 stamps
	p.FlushRing()
	dev.Fence()
	dev.Crash(nvm.CrashStrict, 5)
	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 0 {
		t.Fatalf("wrong-epoch GC entry adopted: %v", gc)
	}
}

func TestRingOverflowPanics(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected ring overflow panic")
		}
	}()
	for i := int64(0); i <= l.RingCap; i++ {
		p.Free(p.dataOff) // same slot repeatedly; only ring accounting matters
	}
}

func TestRingWraparound(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)
	// Cycle more entries than the ring capacity across epochs to force
	// wraparound, checkpointing each round so entries can be consumed.
	epoch := uint64(1)
	off, _ := p.Alloc()
	for i := int64(0); i < l.RingCap*3; i++ {
		p.Free(off)
		runCheckpoint(dev, rec, epoch, p)
		epoch++
		got, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if got != off {
			t.Fatalf("round %d: got %d, want %d", i, got, off)
		}
	}
}

func TestEpochRecord(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	if rec.Load() != 0 {
		t.Fatalf("fresh record = %d", rec.Load())
	}
	rec.Store(7)
	dev.Crash(nvm.CrashStrict, 1)
	if rec.Load() != 7 {
		t.Fatalf("record after crash = %d, want 7", rec.Load())
	}
}

func TestCounters(t *testing.T) {
	l, dev := testLayout(t)
	c := NewCounter(dev, l, 2)
	c.Checkpoint(123, 1)
	dev.Fence()
	dev.Crash(nvm.CrashStrict, 1)
	if got := NewCounter(dev, l, 2).Load(1); got != 123 {
		t.Fatalf("counter = %d, want 123", got)
	}
	// The parity slots are independent: epoch 2's checkpoint must not
	// clobber the value recovery reads when epoch 2 doesn't commit.
	c.Checkpoint(456, 2)
	if got := c.Load(1); got != 123 {
		t.Fatalf("epoch-1 slot = %d after epoch-2 store, want 123", got)
	}
	if got := c.Load(2); got != 456 {
		t.Fatalf("epoch-2 slot = %d, want 456", got)
	}
}

func TestCounterOutOfRangePanics(t *testing.T) {
	l, _ := testLayout(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.CounterOff(l.Counters)
}

// TestQuickCrashRecoverMatchesModel drives a random alloc/free/checkpoint
// schedule against both the pool and a pure-DRAM model, crashes at a random
// point, and verifies the recovered pool matches the model's state at the
// last checkpoint.
func TestQuickCrashRecoverMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Layout{
			Cores: 1, RowSize: 256, RowsPerCore: 128, ValueSize: 256,
			ValuesPerCore: 16, RingCap: 512, LogBytes: 4096, Counters: 0,
		}
		if err := l.Finalize(); err != nil {
			t.Fatal(err)
		}
		dev := nvm.New(l.TotalBytes())
		if err := Format(dev, l); err != nil {
			t.Fatal(err)
		}
		rec := NewEpochRecord(dev, l)
		p := RowPool(dev, l, 0)

		type state struct {
			bump  int64
			frees []int64 // logical free list front..back
		}
		var ckpt state // model at last checkpoint
		live := state{}
		allocated := map[int64]bool{}
		epoch := uint64(1)
		ckptTailLen := 0 // number of free entries consumable this epoch

		steps := 30 + rng.Intn(60)
		for i := 0; i < steps; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // alloc
				off, err := p.Alloc()
				if err != nil {
					continue
				}
				var want int64
				if ckptTailLen > 0 && len(live.frees) > 0 {
					want = live.frees[0]
					live.frees = live.frees[1:]
					ckptTailLen--
				} else {
					want = l.RowDataOff(0) + live.bump*l.RowSize
					live.bump++
				}
				if off != want {
					t.Logf("seed %d step %d: alloc %d, model %d", seed, i, off, want)
					return false
				}
				allocated[off] = true
			case 4, 5, 6: // free an allocated slot
				for off := range allocated {
					delete(allocated, off)
					p.Free(off)
					live.frees = append(live.frees, off)
					break
				}
			default: // checkpoint
				runCheckpoint(dev, rec, epoch, p)
				epoch++
				ckpt = state{bump: live.bump, frees: append([]int64(nil), live.frees...)}
				ckptTailLen = len(live.frees)
			}
		}
		dev.Crash(nvm.CrashStrict, seed)
		p2 := RowPool(dev, l, 0)
		p2.Recover(rec.Load(), true)
		if p2.Bump() != ckpt.bump {
			t.Logf("seed %d: bump %d, model %d", seed, p2.Bump(), ckpt.bump)
			return false
		}
		if p2.FreeCount() != int64(len(ckpt.frees)) {
			t.Logf("seed %d: freeCount %d, model %d", seed, p2.FreeCount(), len(ckpt.frees))
			return false
		}
		fs := p2.FreeSet()
		for _, off := range ckpt.frees {
			if _, ok := fs[off]; !ok {
				t.Logf("seed %d: slot %d missing", seed, off)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestUnchangedSlotSkipCrashSafe pins the changed-only checkpoint writes:
// a counter and a pool that stay unchanged across both parities write
// nothing back, and when one of them then changes, a crash at every flush
// of the next two checkpoints (and between their fence and epoch record),
// in every crash mode, recovers the exact values of the last committed
// epoch.
func TestUnchangedSlotSkipCrashSafe(t *testing.T) {
	type state struct {
		ctr              uint64
		bump, head, tail int64
	}
	const lastEpoch = 6
	l, _ := testLayout(t)
	for _, variant := range []string{"counter-changes", "pool-changes"} {
		// scenario replays epochs 1..lastEpoch on a fresh device and stops
		// in crashEpoch: at the injected crash when failAfter>0 fires
		// inside its checkpoint, after its fence (before its epoch record)
		// when stopBefore is set, and after its commit otherwise. It
		// returns the device, the committed state of every epoch, and the
		// lines crashEpoch's checkpoint wrote back.
		scenario := func(t *testing.T, crashEpoch uint64, failAfter int64, stopBefore bool) (*nvm.Device, []state, int64) {
			_, dev := testLayout(t)
			rec := NewEpochRecord(dev, l)
			p := RowPool(dev, l, 0)
			c := NewCounter(dev, l, 1)
			ctr := uint64(7)
			states := []state{{}}
			var ckptFlushes int64
			for e := uint64(1); e <= lastEpoch; e++ {
				switch {
				case e == 1:
					for i := 0; i < 3; i++ {
						if _, err := p.Alloc(); err != nil {
							t.Fatal(err)
						}
					}
				case e == 5 && variant == "counter-changes":
					ctr++
				case e == 5:
					off, err := p.Alloc()
					if err != nil {
						t.Fatal(err)
					}
					p.Free(off)
				}
				before := dev.Stats().Flushes
				if e == crashEpoch && failAfter > 0 {
					dev.SetFailAfter(failAfter)
				}
				fired := catchInjected(func() {
					c.Checkpoint(ctr, e)
					p.Checkpoint(e)
				})
				dev.SetFailAfter(0)
				if e == crashEpoch {
					ckptFlushes = dev.Stats().Flushes - before
				}
				if (e == 3 || e == 4) && dev.Stats().Flushes != before {
					t.Fatalf("epoch %d: unchanged checkpoint flushed %d lines", e, dev.Stats().Flushes-before)
				}
				if fired {
					return dev, states, ckptFlushes
				}
				dev.Fence()
				if e == crashEpoch && stopBefore {
					return dev, states, ckptFlushes
				}
				rec.Store(e)
				p.Checkpointed()
				states = append(states, state{ctr, p.Bump(), p.head, p.tail})
				if e == crashEpoch {
					return dev, states, ckptFlushes
				}
			}
			return dev, states, ckptFlushes
		}
		check := func(t *testing.T, dev *nvm.Device, states []state, what string) {
			ckpt := NewEpochRecord(dev, l).Load()
			if int(ckpt) != len(states)-1 {
				t.Fatalf("%s: recovered checkpoint %d, want %d", what, ckpt, len(states)-1)
			}
			p := RowPool(dev, l, 0)
			p.Recover(ckpt, false)
			got := state{NewCounter(dev, l, 1).Load(ckpt), p.Bump(), p.head, p.tail}
			if want := states[ckpt]; got != want {
				t.Fatalf("%s: recovered %+v, want epoch %d's %+v", what, got, ckpt, want)
			}
		}
		t.Run(variant, func(t *testing.T) {
			for _, ce := range []uint64{5, 6} {
				// The crash-free run of the checkpoint sizes the sweep.
				_, _, n := scenario(t, ce, 0, true)
				if n == 0 {
					t.Fatalf("epoch %d's checkpoint wrote nothing back", ce)
				}
				for _, mode := range []nvm.CrashMode{nvm.CrashStrict, nvm.CrashRandom, nvm.CrashAll} {
					for seed := int64(0); seed < 3; seed++ {
						if mode != nvm.CrashRandom && seed > 0 {
							continue
						}
						// Fail at every flush, then crash after the fence
						// but before the epoch record; neither commits ce.
						for k := int64(1); k <= n+1; k++ {
							dev, states, _ := scenario(t, ce, k, k > n)
							dev.Crash(mode, seed)
							check(t, dev, states, fmt.Sprintf("epoch %d mode %d seed %d point %d", ce, mode, seed, k))
						}
						// The committed checkpoint recovers its own values.
						dev, states, _ := scenario(t, ce, 0, false)
						dev.Crash(mode, seed)
						check(t, dev, states, fmt.Sprintf("epoch %d mode %d seed %d committed", ce, mode, seed))
					}
				}
			}
		})
	}
}

// catchInjected runs f and reports whether it panicked with an injected
// device crash.
func catchInjected(f func()) (fired bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvm.ErrInjectedCrash {
				panic(r)
			}
			fired = true
		}
	}()
	f()
	return false
}
