package ciphers

import (
	"bytes"
	"crypto/cipher"
	stddes "crypto/des"
	"math/bits"
	"math/rand"
	"testing"
)

// The round function reads S-box group g as a rotation of the half block;
// that must be the same six bits the E table selects.
func TestExpandByRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		r := rng.Uint32()
		e := permute(uint64(r), 32, desE[:])
		for g := 0; g < 8; g++ {
			want := uint32(e>>(6*uint(7-g))) & 0x3f
			if got := bits.RotateLeft32(r, 4*g+5) & 0x3f; got != want {
				t.Fatalf("r=%08x group %d: rotation gives %02x, E gives %02x", r, g, got, want)
			}
		}
	}
}

func TestDESDecryptMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		key, ct := make([]byte, 8), make([]byte, 8)
		rng.Read(key)
		rng.Read(ct)
		d, err := NewDES(key)
		if err != nil {
			t.Fatal(err)
		}
		std, _ := stddes.NewCipher(key)
		got, want := make([]byte, 8), make([]byte, 8)
		d.DecryptBlock(got, ct)
		std.Decrypt(want, ct)
		if !bytes.Equal(got, want) {
			t.Fatalf("key=%x ct=%x: got %x, want %x", key, ct, got, want)
		}
	}
}

func TestDESCBCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lens := []int{0, 1, 7, 8, 9, 63, 64, 2048}
	for i := 0; i < 32; i++ {
		lens = append(lens, rng.Intn(4097))
	}
	for _, n := range lens {
		key, iv, msg := make([]byte, 8), make([]byte, 8), make([]byte, n)
		rng.Read(key)
		rng.Read(iv)
		rng.Read(msg)
		d, err := NewDES(key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.EncryptCBC(iv, msg)
		if err != nil {
			t.Fatal(err)
		}
		std, _ := stddes.NewCipher(key)
		want := Pad(msg, DESBlockSize)
		cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d key=%x iv=%x: CBC ciphertext differs from crypto/cipher", n, key, iv)
		}
	}
}

func TestCBCAllocs(t *testing.T) {
	d, _ := NewDES([]byte("8bytekey"))
	iv := []byte("initvect")
	msg := bytes.Repeat([]byte{0x5A}, 348)
	ct, _ := d.EncryptCBC(iv, msg)
	if a := testing.AllocsPerRun(100, func() { d.EncryptCBC(iv, msg) }); a != 1 {
		t.Errorf("EncryptCBC: %v allocs/call, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { d.DecryptCBC(iv, ct) }); a != 1 {
		t.Errorf("DecryptCBC: %v allocs/call, want 1", a)
	}
}

// DecryptCBC parses ciphertext off the wire: it must reject, never panic
// on, malformed input, and whatever it accepts must re-encrypt to the
// same bytes.
func FuzzDecryptCBC(f *testing.F) {
	key, iv := []byte("8bytekey"), []byte("initvect")
	d, _ := NewDES(key)
	packet, _ := d.EncryptCBC(iv, bytes.Repeat([]byte{0xC3}, 2047))
	f.Add(key, iv, []byte{})
	f.Add(key, iv, []byte("one-blok"))
	badPad := []byte{1, 2, 3, 4, 5, 6, 7, 9} // pad byte 9 > block size
	for i := range badPad {
		badPad[i] ^= iv[i]
	}
	d.EncryptBlock(badPad, badPad)
	if _, err := d.DecryptCBC(iv, badPad); err == nil {
		f.Fatal("bad-pad seed decrypts")
	}
	f.Add(key, iv, badPad)
	f.Add(key, iv, packet)
	f.Fuzz(func(t *testing.T, key, iv, ct []byte) {
		d, err := NewDES(key)
		if err != nil {
			return
		}
		pt, err := d.DecryptCBC(iv, ct)
		if err != nil {
			return
		}
		re, err := d.EncryptCBC(iv, pt)
		if err != nil {
			t.Fatalf("re-encrypt: %v", err)
		}
		if !bytes.Equal(re, ct) {
			t.Fatalf("ct=%x decrypts to %x, which re-encrypts to %x", ct, pt, re)
		}
	})
}

// The message size is the mean seccomm payload.
const benchCBCLen = 348

func BenchmarkDESBlock(b *testing.B) {
	d, _ := NewDES([]byte("8bytekey"))
	var blk [8]byte
	b.SetBytes(DESBlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.EncryptBlock(blk[:], blk[:])
	}
}

func BenchmarkDESBlockStdlib(b *testing.B) {
	std, _ := stddes.NewCipher([]byte("8bytekey"))
	var blk [8]byte
	b.SetBytes(DESBlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		std.Encrypt(blk[:], blk[:])
	}
}

// BenchmarkDESCBC encrypts and decrypts one message, as a seccomm op does.
func BenchmarkDESCBC(b *testing.B) {
	d, _ := NewDES([]byte("8bytekey"))
	iv, msg := []byte("initvect"), make([]byte, benchCBCLen)
	b.SetBytes(benchCBCLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ct, _ := d.EncryptCBC(iv, msg)
		if _, err := d.DecryptCBC(iv, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESCBCStdlib is BenchmarkDESCBC on crypto/des and crypto/cipher,
// with the same padding and the same fresh output slices.
func BenchmarkDESCBCStdlib(b *testing.B) {
	std, _ := stddes.NewCipher([]byte("8bytekey"))
	iv, msg := []byte("initvect"), make([]byte, benchCBCLen)
	b.SetBytes(benchCBCLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ct := Pad(msg, DESBlockSize)
		cipher.NewCBCEncrypter(std, iv).CryptBlocks(ct, ct)
		pt := make([]byte, len(ct))
		cipher.NewCBCDecrypter(std, iv).CryptBlocks(pt, ct)
		if _, err := Unpad(pt, DESBlockSize); err != nil {
			b.Fatal(err)
		}
	}
}
