// Command georeplication demonstrates Figure 3: two data centers managed
// as one image. A file written at site A is read at site B (first touch
// over the WAN, the rest prefetched), a write at either site reaches the
// file's home and drops stale replicas, key files replicate synchronously,
// bulk files asynchronously, and a site disaster fails over with the
// expected loss windows.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/georepl"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func main() {
	gs, err := core.NewGeoSystem(1, core.GeoOptions{
		Sites:     []string{"argonne", "berkeley"},
		WANOneWay: 30 * sim.Millisecond, // ~continental distance
		Geo:       georepl.Config{PrefetchBytes: 256 << 10, HotThreshold: 3},
		SiteOptions: func(string) core.Options {
			return core.Options{Blades: 4}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gs.K.Close()

	fmt.Println("== Figure 3: two sites, one data image (30 ms one-way WAN) ==")
	err = gs.Run(0, func(p *sim.Proc) error {
		a := gs.Site("argonne")
		b := gs.Site("berkeley")

		// A large dataset produced at Argonne.
		data := make([]byte, 256<<10)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := a.Create(p, "/runs/run42.h5", pfs.Policy{}); err != nil {
			return err
		}
		if err := a.WriteAt(p, "/runs/run42.h5", 0, data); err != nil {
			return err
		}

		// Berkeley reads it: first block pays the WAN, the rest is local.
		buf := make([]byte, 16<<10)
		for i := 0; i < 4; i++ {
			off := int64(i) * int64(len(buf))
			t0 := p.Now()
			if _, err := b.ReadAt(p, "/runs/run42.h5", off, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
				return fmt.Errorf("data mismatch at read %d", i)
			}
			fmt.Printf("  berkeley read %2d: %8.2f ms\n", i+1, p.Now().Sub(t0).Millis())
		}
		fmt.Printf("  berkeley stats: %d WAN fetch, %d prefetched, %d promotions\n",
			b.Stats.RemoteReads, b.Stats.PrefetchHits, b.Stats.Promotions)

		// The home rewrites the file after berkeley promoted its replica:
		// berkeley drops that copy before the write is acknowledged, so
		// its very next read fetches the new bytes.
		header := bytes.Repeat([]byte{0xA5}, len(buf))
		if err := a.WriteAt(p, "/runs/run42.h5", 0, header); err != nil {
			return err
		}
		t0 := p.Now()
		if _, err := b.ReadAt(p, "/runs/run42.h5", 0, buf); err != nil || !bytes.Equal(buf, header) {
			return fmt.Errorf("berkeley re-read after the home's write: %v", err)
		}
		fmt.Printf("  argonne rewrite: %d replica invalidated; berkeley re-read %6.2f ms over the WAN\n",
			a.Stats.Invalidations, p.Now().Sub(t0).Millis())

		// A write at berkeley, which is not the file's home, is forwarded.
		t0 = p.Now()
		if err := b.WriteAt(p, "/runs/run42.h5", int64(len(data)), []byte("calibrated at berkeley")); err != nil {
			return err
		}
		fmt.Printf("  berkeley write: %6.2f ms (forwarded to argonne, the file's home)\n", p.Now().Sub(t0).Millis())

		// Per-file replication policy (§7.2): the key database log is
		// synchronous; bulk output is asynchronous.
		keyPol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoSync, Sites: []string{"berkeley"}}}
		bulkPol := pfs.Policy{Geo: pfs.GeoPolicy{Mode: pfs.GeoAsync, Sites: []string{"berkeley"}}}
		a.Create(p, "/db/wal", keyPol)
		a.Create(p, "/bulk/frames", bulkPol)

		block := make([]byte, 4096)
		t0 = p.Now()
		a.WriteAt(p, "/db/wal", 0, block)
		fmt.Printf("  sync write:  %6.2f ms (waits for the WAN round trip)\n", p.Now().Sub(t0).Millis())
		t1 := p.Now()
		a.WriteAt(p, "/bulk/frames", 0, block)
		fmt.Printf("  async write: %6.2f ms (journal ships in the background)\n", p.Now().Sub(t1).Millis())

		// Disaster: Argonne goes dark before the async journal drains.
		gs.Fed.FailSite("argonne")
		recovered, lost := gs.Fed.Failover("argonne")
		fmt.Printf("  site disaster: %d files recovered at berkeley, %d lost entirely\n", recovered, lost)
		if _, err := b.FS().Stat("/db/wal"); err == nil {
			fmt.Println("  /db/wal (sync) survived with zero data loss")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
