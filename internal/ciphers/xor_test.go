package ciphers

import (
	"bytes"
	"math/rand"
	"testing"
)

// Every key length against every message length around it, so that the
// strided loop meets whole strides, partial tails and short messages.
func TestXORMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for kl := 1; kl <= 9; kl++ {
		key := make([]byte, kl)
		rng.Read(key)
		x := NewXOR(key)
		for n := 0; n <= 4*kl+3; n++ {
			msg := make([]byte, n)
			rng.Read(msg)
			want := make([]byte, n)
			for i, b := range msg {
				want[i] = b ^ key[i%kl]
			}
			if got := x.Apply(msg); !bytes.Equal(got, want) {
				t.Fatalf("key len %d, msg len %d: got %x, want %x", kl, n, got, want)
			}
			x.ApplyInPlace(msg)
			if !bytes.Equal(msg, want) {
				t.Fatalf("key len %d, msg len %d: in place got %x, want %x", kl, n, msg, want)
			}
		}
	}
}

// The key length is the seccomm workload's; the message size is its mean
// payload.
func BenchmarkXOR(b *testing.B) {
	x := NewXOR([]byte{0x13, 0x37, 0x42})
	msg := make([]byte, benchCBCLen)
	b.SetBytes(benchCBCLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.ApplyInPlace(msg)
	}
}
