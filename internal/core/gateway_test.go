package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/gateway"
	"repro/internal/sim"
)

// TestSystemObjectGateway exercises the Options.Gateway wiring end to
// end: an object put/get through the full stack (IAM → metadata shards →
// pfs → cluster), with the gateway's telemetry registered under the
// cluster registry.
func TestSystemObjectGateway(t *testing.T) {
	sys := newTestSystem(t, Options{
		Seed:          7,
		Blades:        2,
		Disks:         8,
		DisksPerGroup: 4,
		DiskSpec: disk.Spec{
			BlockSize: 4096, Blocks: 1 << 12,
			Seek: 5 * sim.Millisecond, Rotation: 3 * sim.Millisecond,
			TransferBps: 400 << 23,
		},
		Gateway: &gateway.Config{MetaShards: 2},
	})
	if sys.Gateway == nil {
		t.Fatalf("Options.Gateway set but System.Gateway nil")
	}
	if _, err := sys.Auth.CreateTenant("hpc"); err != nil {
		t.Fatalf("CreateTenant: %v", err)
	}
	tok, err := sys.Auth.Issue("hpc", 3600*sim.Second)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	payload := make([]byte, 20000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	err = sys.Run(0, func(p *sim.Proc) error {
		if err := sys.Gateway.CreateBucket(p, tok, "results", gateway.BucketOptions{Priority: -1}); err != nil {
			return err
		}
		if _, err := sys.Gateway.PutObject(p, tok, "results", "run/001.dat", payload); err != nil {
			return err
		}
		got, _, err := sys.Gateway.GetObject(p, tok, "results", "run/001.dat")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("object corrupted through full stack")
		}
		rows, _, err := sys.Gateway.ListObjects(p, tok, "results", "run/", "", 10)
		if err != nil {
			return err
		}
		if len(rows) != 1 || rows[0].Key != "run/001.dat" {
			return fmt.Errorf("ListObjects: %+v", rows)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The gateway's tiers are visible in the cluster registry.
	for _, name := range []string{"gateway/ops/get", "gateway/iam/auths", "gateway/meta/shard/0/ops", "gateway/meta/shard/1/ops"} {
		if _, ok := sys.Registry.Value(name); !ok {
			t.Fatalf("metric %q not registered (have: %v)", name, sys.Registry.Match("gateway/*"))
		}
	}
	if v, _ := sys.Registry.Value("gateway/ops/get"); v != 1 {
		t.Fatalf("gateway/ops/get = %v, want 1", v)
	}
	if !strings.Contains(sys.Gateway.Status(), "1 buckets") {
		t.Fatalf("Status: %q", sys.Gateway.Status())
	}
}
