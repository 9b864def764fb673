// Overlap: communication/computation overlap on the real runtime stack.
//
// The receiver posts a non-blocking receive for a large message, then
// computes without touching the library. Because nmad progresses the
// rendezvous through PIOMan tasks in the background, the transfer
// completes during the computation — the paper's Figure 6 behaviour on
// the wall clock; `piobench -run fig6` sweeps it on a virtual one.
//
// Run with: go run ./examples/overlap
package main

import (
	"fmt"
	"time"

	"pioman/internal/mpi"
	"pioman/internal/nmad"
)

func main() {
	comms, engines, err := mpi.LocalCluster(2, nmad.Config{})
	if err != nil {
		panic(err)
	}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	sender, receiver := comms[0], comms[1]

	payload := make([]byte, 4<<20) // 4 MB: comfortably rendezvous
	for i := range payload {
		payload[i] = byte(i)
	}

	go func() {
		if err := sender.Send(1, 1, payload); err != nil {
			panic(err)
		}
	}()

	req, err := receiver.Irecv(0, 1)
	if err != nil {
		panic(err)
	}

	// "Compute" for a while: spin without calling into the library.
	computeStart := time.Now()
	spins := 0
	for time.Since(computeStart) < 50*time.Millisecond {
		spins++
	}
	computed := time.Since(computeStart)

	// Was the transfer already finished when the computation ended?
	overlapped := req.Test()

	waitStart := time.Now()
	data, err := req.Wait()
	if err != nil {
		panic(err)
	}
	waited := time.Since(waitStart)

	total := computed + waited
	fmt.Printf("received %d bytes\n", len(data))
	fmt.Printf("computation: %v (%d spins), residual wait after compute: %v\n", computed, spins, waited)
	fmt.Printf("transfer complete before Wait: %v\n", overlapped)
	fmt.Printf("overlap ratio (Tcomp/Ttotal): %.3f\n", float64(computed)/float64(total))
}
