// Concurrent submission: serve transactions from many goroutines through
// the group-commit front-end instead of hand-assembling epoch batches.
//
//	go run ./examples/concurrent
//
// A Submitter sits between concurrent clients and the single-threaded epoch
// pipeline: goroutines call Submit and get a future; a batch former closes
// an epoch as soon as the engine is idle, or, while an epoch is running,
// once that epoch completes, MaxBatch transactions accumulate or MaxDelay
// elapses. It runs each batch through the engine and resolves every future
// once the epoch is durable. Clients never coordinate with each other, yet every transaction
// still executes in a deterministic, logged epoch.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"time"

	"nvcaracal"
)

const tableAccounts = uint32(1)

// depositTxn inserts or tops up one account. As in the quickstart, the
// write set is declared up front and Input lets the registered decoder
// rebuild the transaction during crash recovery.
func depositTxn(account uint64, amount uint64, insert bool) *nvcaracal.Txn {
	kind := nvcaracal.OpUpdate
	flag := byte(0)
	if insert {
		kind = nvcaracal.OpInsert
		flag = 1
	}
	input := binary.LittleEndian.AppendUint64(nil, account)
	input = binary.LittleEndian.AppendUint64(input, amount)
	input = append(input, flag)
	return &nvcaracal.Txn{
		TypeID: 1,
		Input:  input,
		Ops:    []nvcaracal.Op{{Table: tableAccounts, Key: account, Kind: kind}},
		Exec: func(ctx *nvcaracal.Ctx) {
			var balance uint64
			if !insert {
				old, _ := ctx.Read(tableAccounts, account)
				balance = binary.LittleEndian.Uint64(old)
			}
			ctx.Write(tableAccounts, account,
				binary.LittleEndian.AppendUint64(nil, balance+amount))
		},
	}
}

func main() {
	reg := nvcaracal.NewRegistry()
	reg.Register(1, func(d []byte, _ *nvcaracal.DB) (*nvcaracal.Txn, error) {
		return depositTxn(
			binary.LittleEndian.Uint64(d),
			binary.LittleEndian.Uint64(d[8:]),
			d[16] == 1), nil
	})

	db, err := nvcaracal.Open(nvcaracal.Config{Registry: reg})
	if err != nil {
		log.Fatal(err)
	}

	// Seed the accounts with one hand-batched epoch, then hand the database
	// to the front-end. While a Submitter is open it owns the epoch pipeline;
	// don't call RunEpoch directly.
	const accounts = 8
	var seed []*nvcaracal.Txn
	for a := uint64(1); a <= accounts; a++ {
		seed = append(seed, depositTxn(a, 100, true))
	}
	if _, err := db.RunEpoch(seed); err != nil {
		log.Fatal(err)
	}

	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: 64,                     // behind a running epoch, close at 64 txns...
		MaxDelay: 500 * time.Microsecond, // ...or after 500µs, whichever first
	})

	// 8 clients each deposit into every account concurrently. Each Submit
	// returns a future; Wait blocks until the transaction's epoch is durable.
	const clients, deposits = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < deposits; i++ {
				fut, err := s.Submit(depositTxn(uint64(1+(c+i)%accounts), 1, false))
				if err != nil {
					log.Fatal(err)
				}
				if r := fut.Wait(); r.Err != nil || !r.Committed {
					log.Fatalf("deposit lost: %+v", r)
				}
			}
		}(c)
	}
	wg.Wait()

	// Close flushes any partially formed batch and stops the pipeline; after
	// it returns the database is safe to drive directly again.
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}

	var totalBalance uint64
	for a := uint64(1); a <= accounts; a++ {
		v, _ := db.Get(tableAccounts, a)
		totalBalance += binary.LittleEndian.Uint64(v)
	}
	fmt.Printf("%d clients × %d deposits ran in %d epochs\n",
		clients, deposits, db.Epoch()-1)
	fmt.Printf("total balance: %d (seeded %d + deposited %d)\n",
		totalBalance, accounts*100, clients*deposits)
}
