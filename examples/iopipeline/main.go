// I/O pipeline: the paper's long-term vision (§VI) — one task engine
// optimizing communication AND storage. A file is read asynchronously,
// compressed by filter tasks on idle cores, and shipped to a peer over
// the communication engine, all progressing concurrently through the
// same PIOMan task engine while the main goroutine "computes".
//
// Run with: go run ./examples/iopipeline
package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"time"

	"pioman/internal/core"
	"pioman/internal/iomgr"
	"pioman/internal/nmad"
)

func main() {
	// One task engine per process drives storage, filters and
	// networking; its one progression context serves them all, and the
	// libraries only submit.
	tasks := core.New(core.Config{Progress: true})
	defer tasks.Close()

	io := iomgr.New(iomgr.Config{Tasks: tasks})
	defer io.Close()
	sender := nmad.NewEngine(nmad.Config{Tasks: tasks})
	receiver := nmad.NewEngine(nmad.Config{Tasks: tasks})
	defer sender.Close()
	defer receiver.Close()
	ds, dr := nmad.MemPair()
	gs, err := sender.NewGate(ds)
	if err != nil {
		panic(err)
	}
	gr, err := receiver.NewGate(dr)
	if err != nil {
		panic(err)
	}

	// Stage 0: create a source file.
	f, err := os.CreateTemp("", "iopipeline-*.dat")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	src := bytes.Repeat([]byte("the quick brown gopher schedules tasks "), 8192)
	if _, err := io.WriteAt(f, src, 0).Wait(); err != nil {
		panic(err)
	}

	start := time.Now()

	// Stage 1: asynchronous read from disk.
	buf := make([]byte, len(src))
	read := io.ReadAt(f, buf, 0)

	// Stage 2: once read, compress in a filter task on an idle core.
	var compressed bytes.Buffer
	filterDone := make(chan error, 1)
	go func() {
		if _, err := read.Wait(); err != nil {
			filterDone <- err
			return
		}
		req := io.Filter(func() error {
			zw := gzip.NewWriter(&compressed)
			if _, err := zw.Write(buf); err != nil {
				return err
			}
			return zw.Close()
		})
		_, err := req.Wait()
		filterDone <- err
	}()

	// Stage 3: receiver waits for the compressed payload.
	recvDone := make(chan []byte, 1)
	go func() {
		data, err := gr.Recv(1)
		if err != nil {
			panic(err)
		}
		recvDone <- data
	}()

	// Main goroutine: "compute" while the pipeline runs underneath.
	spins := 0
	for len(filterDone) == 0 {
		spins++
	}
	if err := <-filterDone; err != nil {
		panic(err)
	}
	if err := gs.Send(1, compressed.Bytes()); err != nil {
		panic(err)
	}
	shipped := <-recvDone

	fmt.Printf("pipeline: read %d B -> compressed %d B (%.1fx) -> shipped %d B in %v\n",
		len(src), compressed.Len(), float64(len(src))/float64(compressed.Len()),
		len(shipped), time.Since(start))
	fmt.Printf("main goroutine spun %d times while tasks progressed in the background\n", spins)
	reads, writes, filters := io.Stats()
	fmt.Printf("io manager: %d reads, %d writes, %d filter tasks\n", reads, writes, filters)
	st := sender.Stats()
	fmt.Printf("comm engine: %d messages, %d rendezvous\n", st.MsgsSent, st.RdvStarted)
}
