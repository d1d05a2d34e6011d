// Command quickstart builds a four-blade storage system, provisions a
// demand-mapped device, and works with files through the parallel file
// system — the smallest end-to-end tour of the public API. Two storage
// classes beside the default RAID-5 one show §4's per-file RAID type: a
// file's policy names its class, and the class its drives and RAID level.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

// classes are the storage classes beside the default: a mirror that
// survives one drive loss, and a double-parity archive that survives two.
var classes = []core.Class{
	{Name: "mirror", Level: raid.RAID1, Disks: 4, DisksPerGroup: 2},
	{Name: "archive", Level: raid.RAID6, Disks: 6, DisksPerGroup: 6},
}

func main() {
	sys, err := core.NewSystem(core.Options{
		Blades:       4,
		ReplicationN: 2,
		ExtraClasses: classes,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.K.Close()

	fmt.Println("== quickstart: one shared storage pool for the whole lab ==")
	fmt.Printf("blades: %d, disks: %d, raw capacity: %s\n",
		len(sys.Cluster.Blades), len(sys.Cluster.Farm.Disks),
		metrics.FormatBytes(sys.Cluster.Farm.TotalBytes()))

	err = sys.Run(0, func(p *sim.Proc) error {
		// A project directory with a per-file policy: high cache
		// retention and 3-way write replication for the important file.
		if err := sys.FS.MkdirAll("/projects/climate"); err != nil {
			return err
		}
		important := pfs.Policy{CachePriority: 3, ReplicationN: 3}
		if err := sys.FS.WriteFile(p, "/projects/climate/model.bin",
			[]byte("global circulation model state"), important); err != nil {
			return err
		}
		if err := sys.FS.WriteFile(p, "/projects/climate/notes.txt",
			[]byte("scratch notes"), pfs.Policy{}); err != nil {
			return err
		}

		data, err := sys.FS.ReadFile(p, "/projects/climate/model.bin")
		if err != nil {
			return err
		}
		fmt.Printf("read back %d bytes at t=%v\n", len(data), p.Now())

		names, err := sys.FS.List("/projects/climate")
		if err != nil {
			return err
		}
		fmt.Printf("directory listing: %v\n", names)

		// One file per extra class: its policy picks the class, whose own
		// pool holds the file's extents once the write-back caches destage.
		for _, cl := range classes {
			path := "/projects/" + cl.Name + ".dat"
			if err := sys.FS.WriteFile(p, path, []byte(cl.Name+" copy of the model"), pfs.Policy{Class: cl.Name}); err != nil {
				return err
			}
			sys.Cluster.FlushAll(p)
			got, err := sys.FS.ReadFile(p, path)
			if err != nil {
				return err
			}
			pool, _ := sys.Cluster.PoolFor(cl.Name)
			fmt.Printf("class %-7s %v: read back %q; %d extent on its own drives\n",
				cl.Name, cl.Level, got, pool.AllocatedExtents())
		}

		// The pool is thin: physical use reflects what was written.
		pool := sys.Cluster.Pool
		fmt.Printf("pool: %s physically allocated of %s raw (thin provisioning)\n",
			metrics.FormatBytes(pool.AllocatedBytes()),
			metrics.FormatBytes(pool.TotalExtents()*pool.ExtentBytes()))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every blade can serve every byte: read the same file through each.
	err = sys.Run(0, func(p *sim.Proc) error {
		for _, b := range sys.Cluster.Blades {
			if _, err := sys.Cluster.Read(p, b, "fs.default", 0, 1, 0); err != nil {
				return fmt.Errorf("blade %d: %w", b.ID, err)
			}
		}
		fmt.Println("all blades served the same block — one coherent pool")
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
