// Aria: the paper's §7 integration target realized — Aria-style
// deterministic concurrency control (no declared write sets; snapshot
// execution + deterministic conflict detection) running on the same NVMM
// dual-version checkpointing substrate, side by side with the
// Caracal-style path.
//
// The example contrasts the two designs under contention: Caracal-style
// epochs commit every transaction (intermediate versions absorbed by
// DRAM), while Aria must abort and resubmit conflicting transactions —
// the trade-off for not needing write sets up front.
//
//	go run ./examples/aria
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"nvcaracal"
)

const table = uint32(1)

const (
	txSet uint16 = 1
	txRMW uint16 = 2
)

func ariaSet(key uint64, val []byte) *nvcaracal.AriaTxn {
	in := binary.LittleEndian.AppendUint64(nil, key)
	in = append(in, val...)
	return &nvcaracal.AriaTxn{
		TypeID: txSet, Input: in,
		Exec: func(ctx *nvcaracal.AriaCtx) {
			ctx.Write(table, key, val)
		},
	}
}

func ariaRMW(key uint64, suffix byte) *nvcaracal.AriaTxn {
	in := append(binary.LittleEndian.AppendUint64(nil, key), suffix)
	return &nvcaracal.AriaTxn{
		TypeID: txRMW, Input: in,
		Exec: func(ctx *nvcaracal.AriaCtx) {
			old, _ := ctx.Read(table, key)
			ctx.Write(table, key, append(append([]byte(nil), old...), suffix))
		},
	}
}

func registry() *nvcaracal.AriaRegistry {
	reg := nvcaracal.NewAriaRegistry()
	reg.Register(txSet, func(d []byte, _ *nvcaracal.DB) (*nvcaracal.AriaTxn, error) {
		return ariaSet(binary.LittleEndian.Uint64(d), d[8:]), nil
	})
	reg.Register(txRMW, func(d []byte, _ *nvcaracal.DB) (*nvcaracal.AriaTxn, error) {
		return ariaRMW(binary.LittleEndian.Uint64(d), d[8]), nil
	})
	return reg
}

func main() {
	cfg := nvcaracal.Config{AriaRegistry: registry(), Registry: nvcaracal.NewRegistry()}
	db, dev, err := nvcaracal.OpenWithDevice(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Populate 100 rows in one Aria epoch (no conflicts: distinct keys).
	var load []*nvcaracal.AriaTxn
	for k := uint64(0); k < 100; k++ {
		load = append(load, ariaSet(k, []byte{byte(k)}))
	}
	res, err := db.RunEpochAria(load)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows in one Aria epoch (%d committed)\n", db.RowCount(), res.Committed)

	// Contended RMWs: 50 transactions over 4 hot keys. Aria commits one
	// writer per key per epoch and defers the rest — watch it converge.
	rng := rand.New(rand.NewSource(1))
	batch := make([]*nvcaracal.AriaTxn, 50)
	for i := range batch {
		batch[i] = ariaRMW(uint64(rng.Intn(4)), byte('a'+i%26))
	}
	round := 1
	totalCommitted := 0
	for len(batch) > 0 {
		res, err := db.RunEpochAria(batch)
		if err != nil {
			log.Fatal(err)
		}
		totalCommitted += res.Committed
		fmt.Printf("round %d: %d committed, %d deferred on conflicts\n",
			round, res.Committed, res.ConflictAborted)
		batch = res.Deferred
		round++
	}
	fmt.Printf("all %d contended transactions committed after %d rounds\n", totalCommitted, round-1)
	fmt.Println("(a Caracal-style epoch commits all 50 in one round — the price")
	fmt.Println(" Aria pays for not declaring write sets up front)")

	// Crash mid-flight and recover: Aria epochs replay deterministically
	// from the same input log. The two-transaction epoch writes back 7
	// lines; the fail-point fires at the 5th, after the input log is
	// durable and before the checkpoint.
	batch2 := []*nvcaracal.AriaTxn{ariaRMW(0, 'Z'), ariaRMW(1, 'Z')}
	func() {
		defer func() {
			if r := recover(); r != nil && r != nvcaracal.ErrInjectedCrash {
				panic(r)
			}
		}()
		dev.SetFailAfter(5)
		db.RunEpochAria(batch2)
	}()
	dev.Crash(nvcaracal.CrashStrict, 7)
	db2, rep, err := nvcaracal.Recover(dev, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrashed mid-epoch and recovered: checkpoint=%d replayed=%d (%d txns)\n",
		rep.CheckpointEpoch, rep.ReplayedEpoch, rep.TxnsReplayed)
	v, _ := db2.Get(table, 0)
	fmt.Printf("key 0 after recovery: %d bytes (deterministic replay preserved every committed epoch)\n", len(v))
}
