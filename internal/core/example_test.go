package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// smallDisks keeps the documented examples fast.
func smallDisks() disk.Spec {
	return disk.Spec{
		BlockSize:   512,
		Blocks:      8192,
		Seek:        sim.Millisecond,
		Rotation:    sim.Millisecond,
		TransferBps: 800_000_000,
	}
}

// ExampleNewSystem builds the paper's architecture and stores a file with
// per-file policy through the parallel file system.
func ExampleNewSystem() {
	sys, err := core.NewSystem(core.Options{
		Blades:       4,
		ReplicationN: 2,
		DiskSpec:     smallDisks(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.K.Close()

	err = sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.MkdirAll("/lab"); err != nil {
			return err
		}
		policy := pfs.Policy{CachePriority: 3, ReplicationN: 3}
		if err := sys.FS.WriteFile(p, "/lab/data.bin", []byte("shared pool"), policy); err != nil {
			return err
		}
		data, err := sys.FS.ReadFile(p, "/lab/data.bin")
		if err != nil {
			return err
		}
		fmt.Printf("read %d bytes through the coherent pool\n", len(data))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: read 11 bytes through the coherent pool
}

// ExampleSystem_Run shows failure injection: a blade dies and acknowledged
// data survives via N-way cache replication (§6.1).
func ExampleSystem_Run() {
	sys, err := core.NewSystem(core.Options{ReplicationN: 2, DiskSpec: smallDisks()})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.K.Close()
	err = sys.Run(0, func(p *sim.Proc) error {
		if err := sys.FS.WriteFile(p, "/important", []byte("ack'd write"), pfs.Policy{}); err != nil {
			return err
		}
		if err := sys.Cluster.FailBlade(p, 0); err != nil {
			return err
		}
		data, err := sys.FS.ReadFile(p, "/important")
		if err != nil {
			return err
		}
		fmt.Printf("after blade failure: %q\n", data)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Output: after blade failure: "ack'd write"
}
