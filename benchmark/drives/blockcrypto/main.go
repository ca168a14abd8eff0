// Command drive-blockcrypto times hashing and both signature schemes:
// the calibration the real-signatures roadmap item needs.
package main

import (
	"flag"
	"math/rand"

	"repro/benchmark/drives/drive"
	"repro/internal/blockcrypto"
)

func main() {
	flag.Parse()
	kb := make([]byte, 1024)
	var sink blockcrypto.Digest
	d, n := drive.Loop(func() { sink = blockcrypto.Hash(kb) })
	drive.Ns("blockcrypto.hash_1k_ns", d, n)

	for _, s := range []struct {
		name   string
		scheme blockcrypto.Scheme
	}{{"sim", blockcrypto.NewSimScheme()}, {"ed25519", blockcrypto.NewEd25519Scheme()}} {
		signer := s.scheme.NewSigner(1, rand.New(rand.NewSource(1)))
		var sig blockcrypto.Signature
		d, n := drive.Loop(func() { sig = signer.Sign(sink) })
		drive.Ns("blockcrypto."+s.name+"_sign_ns", d, n)
		ok := true
		d, n = drive.Loop(func() { ok = ok && s.scheme.Verify(sink, sig) })
		if !ok {
			panic(s.name + ": a signature did not verify")
		}
		drive.Ns("blockcrypto."+s.name+"_verify_ns", d, n)
	}
}
