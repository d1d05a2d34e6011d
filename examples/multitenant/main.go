// Command multitenant demonstrates Figure 2: many user groups sharing one
// pool with LUN masking, token authentication, at-rest encryption, in-band
// control lockdown, and an audit trail of the blocked intruder.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/security"
	"repro/internal/sim"
)

func main() {
	sys, err := core.NewSystem(core.Options{EncryptAtRest: true})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.K.Close()

	fmt.Println("== Figure 2: secure shared pool ==")

	// Two research groups, each with a private LUN in the common pool.
	for _, tenant := range []string{"fusion", "genomics"} {
		if _, err := sys.Auth.CreateTenant(tenant); err != nil {
			log.Fatal(err)
		}
		vol := tenant + "-vol"
		if _, err := sys.Cluster.CreateDMSD("default", vol, 1024); err != nil {
			log.Fatal(err)
		}
		sys.BlockGateway.ExportLUN(tenant+"-lun", vol)
		sys.Mask.Allow(tenant+"-lun", tenant, security.ReadWrite)
	}
	fusionTok, _ := sys.Auth.Issue("fusion", 3600*sim.Second)
	genomicsTok, _ := sys.Auth.Issue("genomics", 3600*sim.Second)

	// Dangerous control verbs are disabled on the data path (§5.2).
	sys.BlockGateway.DisableInBand("volume.delete")

	err = sys.Run(0, func(p *sim.Proc) error {
		secret := bytes.Repeat([]byte("plasma"), 1000)[:4096]

		// Fusion stores data; it comes back intact through encryption.
		if err := sys.BlockGateway.Write(p, fusionTok, "fusion-lun", 0, secret, 0, 0); err != nil {
			return err
		}
		got, err := sys.BlockGateway.Read(p, fusionTok, "fusion-lun", 0, 1, 0)
		if err != nil {
			return err
		}
		fmt.Printf("fusion round trip ok: %v\n", bytes.Equal(got, secret))

		// Each tenant sees only its own LUN.
		vis, _ := sys.BlockGateway.Visible(fusionTok)
		fmt.Printf("fusion sees LUNs: %v\n", vis)

		// Genomics probing fusion's LUN is denied and audited.
		if _, err := sys.BlockGateway.Read(p, genomicsTok, "fusion-lun", 0, 1, 0); err != nil {
			fmt.Printf("cross-tenant read denied: %v\n", err)
		}

		// Even with the ACL circumvented, the at-rest bytes are
		// ciphertext under fusion's key (§5.1): read the raw volume.
		raw, err := sys.Cluster.ReadBlocks(p, "fusion-vol", 0, 1, 0)
		if err != nil {
			return err
		}
		fmt.Printf("raw pool bytes equal plaintext: %v (a stolen disk reveals nothing)\n",
			bytes.Equal(raw, secret))

		// In-band control lockdown.
		err = sys.BlockGateway.Control(fusionTok, "volume.delete", true, func() error { return nil })
		fmt.Printf("in-band volume.delete: %v\n", err)
		err = sys.BlockGateway.Control(fusionTok, "volume.delete", false, func() error { return nil })
		fmt.Printf("out-of-band volume.delete: allowed (err=%v)\n", err)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\naudit trail of denials:")
	for _, e := range sys.Auth.Denials() {
		fmt.Printf("  t=%v tenant=%q action=%s target=%s detail=%q\n",
			e.At, e.Tenant, e.Action, e.Target, e.Detail)
	}
}
