package core

import (
	"bytes"
	"testing"

	"repro/internal/pmu"
	"repro/internal/workloads"
)

// FuzzReadProfile hardens the profile parser: arbitrary input must never
// panic or allocate absurdly, and valid profiles must round-trip.
func FuzzReadProfile(f *testing.F) {
	// Seed with a real serialized profile and a few corruptions.
	cs := workloads.NewSymmetrization(32)
	prof, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(10), NoTime: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prof.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("CCP2"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	if len(corrupt) > 20 {
		corrupt[15] ^= 0xff
	}
	f.Add(corrupt)
	f.Add(craftedProfile(1 << 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic
		}
		// Parsed profiles must re-serialize.
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatalf("re-serializing parsed profile: %v", err)
		}
	})
}
