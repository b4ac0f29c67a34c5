// Package ciphers implements the cryptographic primitives used by the
// SecComm micro-protocols of paper section 4.2: DES (the privacy
// micro-protocol's cipher), a trivial XOR stream cipher (the second
// privacy micro-protocol), and MD5 with a keyed-MD5 MAC (the
// KeyedMD5Integrity micro-protocol of Fig. 2). Everything is implemented
// from scratch; the tests cross-check DES and MD5 against the standard
// library's implementations on random inputs.
//
// The DES block kernel is table-driven: the initial and final
// permutations are eight byte-indexed lookups each, every S-box is fused
// with the P permutation into one 64-entry table, the E expansion is a
// rotation of the half block, and the round keys are split into 6-bit
// S-box groups once per key, in both round orders. The bit-serial
// permute only builds those tables, so a block costs about what
// crypto/des charges.
package ciphers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// DESBlockSize is the DES block size in bytes.
const DESBlockSize = 8

// ErrKeySize reports a key of the wrong length.
var ErrKeySize = errors.New("ciphers: invalid DES key size")

// Initial permutation.
var desIP = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2,
	60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6,
	64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1,
	59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5,
	63, 55, 47, 39, 31, 23, 15, 7,
}

// Final permutation (inverse of IP).
var desFP = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32,
	39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30,
	37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28,
	35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26,
	33, 1, 41, 9, 49, 17, 57, 25,
}

// Expansion of the 32-bit half block to 48 bits.
var desE = [48]byte{
	32, 1, 2, 3, 4, 5,
	4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13,
	12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21,
	20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29,
	28, 29, 30, 31, 32, 1,
}

// Permutation applied to the S-box output.
var desP = [32]byte{
	16, 7, 20, 21,
	29, 12, 28, 17,
	1, 15, 23, 26,
	5, 18, 31, 10,
	2, 8, 24, 14,
	32, 27, 3, 9,
	19, 13, 30, 6,
	22, 11, 4, 25,
}

// Key schedule: permuted choice 1.
var desPC1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9,
	1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27,
	19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15,
	7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29,
	21, 13, 5, 28, 20, 12, 4,
}

// Key schedule: permuted choice 2.
var desPC2 = [48]byte{
	14, 17, 11, 24, 1, 5,
	3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8,
	16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55,
	30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53,
	46, 42, 50, 36, 29, 32,
}

// Per-round left-rotation amounts of the key halves.
var desShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// The eight S-boxes, indexed [box][row*16+col].
var desSBox = [8][64]byte{
	{
		14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
		0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
		4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
		15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
	},
	{
		15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
		3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
		0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
		13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
	},
	{
		10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
		13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
		13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
		1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
	},
	{
		7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
		13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
		10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
		3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
	},
	{
		2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
		14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
		4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
		11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
	},
	{
		12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
		10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
		9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
		4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
	},
	{
		4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
		13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
		1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
		6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
	},
	{
		13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
		1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
		7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
		2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
	},
}

// permute maps the src bits selected by table (1-based, MSB-first over
// width srcBits) into a new MSB-first value of len(table) bits. It builds
// the lookup tables below and the key schedule; no block goes through it.
func permute(src uint64, srcBits int, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out <<= 1
		out |= (src >> (uint(srcBits) - uint(pos))) & 1
	}
	return out
}

// A byte-indexed form of a 64-bit permutation: every output bit comes from
// exactly one input bit, so permuting a block is the OR of what each of
// its eight bytes contributes on its own, tab[i][byte i].
type bytePerm [8][256]uint64

func newBytePerm(table []byte) *bytePerm {
	t := new(bytePerm)
	for i := range t {
		for b := range t[i] {
			t[i][b] = permute(uint64(b)<<(56-8*uint(i)), 64, table)
		}
	}
	return t
}

func (t *bytePerm) apply(v uint64) uint64 {
	return t[0][v>>56] | t[1][byte(v>>48)] | t[2][byte(v>>40)] | t[3][byte(v>>32)] |
		t[4][byte(v>>24)] | t[5][byte(v>>16)] | t[6][byte(v>>8)] | t[7][byte(v)]
}

// The initial and final permutations in byte-indexed form.
var (
	ipTab = newBytePerm(desIP[:])
	fpTab = newBytePerm(desFP[:])
)

// spBox fuses each S-box with the P permutation: spBox[box][six] is the
// P-permuted contribution of feeding the 6-bit value six into the box.
// The round function then reduces to eight table lookups and XORs.
var spBox [8][64]uint32

func init() {
	for box := 0; box < 8; box++ {
		for six := 0; six < 64; six++ {
			row := ((six & 0x20) >> 4) | (six & 1)
			col := (six >> 1) & 0x0f
			out := uint64(desSBox[box][row*16+col]) << (4 * (7 - uint(box)))
			spBox[box][six] = uint32(permute(out, 32, desP[:]))
		}
	}
}

// roundKeys holds the 16 round keys of one direction, each split into the
// eight 6-bit groups that feed the S-boxes, group 0 first.
type roundKeys [16][8]uint32

// DES is a from-scratch implementation of the Data Encryption Standard
// (FIPS 46-3) on single 8-byte blocks.
type DES struct {
	enc, dec roundKeys // dec is enc in reverse round order
}

// NewDES builds the key schedule from an 8-byte key (parity bits are
// ignored, as usual).
func NewDES(key []byte) (*DES, error) {
	if len(key) != 8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrKeySize, len(key))
	}
	d := &DES{}
	k := binary.BigEndian.Uint64(key)
	cd := permute(k, 64, desPC1[:]) // 56 bits: C (28) || D (28)
	c := uint32(cd>>28) & 0x0fffffff
	dd := uint32(cd) & 0x0fffffff
	rot28 := func(v uint32, n byte) uint32 {
		return ((v << n) | (v >> (28 - n))) & 0x0fffffff
	}
	for i := 0; i < 16; i++ {
		c = rot28(c, desShifts[i])
		dd = rot28(dd, desShifts[i])
		combined := (uint64(c) << 28) | uint64(dd)
		sub := permute(combined, 56, desPC2[:]) // 48 bits
		for g := 0; g < 8; g++ {
			six := uint32(sub>>(6*uint(7-g))) & 0x3f
			d.enc[i][g] = six
			d.dec[15-i][g] = six
		}
	}
	return d, nil
}

// feistel is the DES round function on a 32-bit half block. S-box group g
// reads the E-expanded bits 4g..4g+5 (1-based, MSB-first, wrapping at 32),
// which a left rotation by 4g+5 brings to the low six bits.
func feistel(r uint32, k *[8]uint32) uint32 {
	return spBox[0][(bits.RotateLeft32(r, 5)^k[0])&0x3f] ^
		spBox[1][(bits.RotateLeft32(r, 9)^k[1])&0x3f] ^
		spBox[2][(bits.RotateLeft32(r, 13)^k[2])&0x3f] ^
		spBox[3][(bits.RotateLeft32(r, 17)^k[3])&0x3f] ^
		spBox[4][(bits.RotateLeft32(r, 21)^k[4])&0x3f] ^
		spBox[5][(bits.RotateLeft32(r, 25)^k[5])&0x3f] ^
		spBox[6][(bits.RotateLeft32(r, 29)^k[6])&0x3f] ^
		spBox[7][(bits.RotateLeft32(r, 1)^k[7])&0x3f]
}

// crypt runs the 16 rounds under ks, two at a time so that the halves
// never swap, between the initial and the final permutation.
func crypt(block uint64, ks *roundKeys) uint64 {
	v := ipTab.apply(block)
	l, r := uint32(v>>32), uint32(v)
	for i := 0; i < 16; i += 2 {
		l ^= feistel(r, &ks[i])
		r ^= feistel(l, &ks[i+1])
	}
	// The last round's output halves go to the final permutation swapped.
	return fpTab.apply(uint64(r)<<32 | uint64(l))
}

// EncryptBlock encrypts one 8-byte block (dst and src may overlap).
func (d *DES) EncryptBlock(dst, src []byte) {
	binary.BigEndian.PutUint64(dst, crypt(binary.BigEndian.Uint64(src), &d.enc))
}

// DecryptBlock decrypts one 8-byte block.
func (d *DES) DecryptBlock(dst, src []byte) {
	binary.BigEndian.PutUint64(dst, crypt(binary.BigEndian.Uint64(src), &d.dec))
}

// EncryptCBC encrypts msg under CBC with the given 8-byte IV, applying
// PKCS#7-style padding first. It returns a fresh ciphertext slice: the
// padded copy of msg, encrypted in place.
func (d *DES) EncryptCBC(iv, msg []byte) ([]byte, error) {
	if len(iv) != DESBlockSize {
		return nil, fmt.Errorf("ciphers: IV must be %d bytes", DESBlockSize)
	}
	out := Pad(msg, DESBlockSize)
	prev := binary.BigEndian.Uint64(iv)
	for i := 0; i < len(out); i += DESBlockSize {
		prev = crypt(binary.BigEndian.Uint64(out[i:])^prev, &d.enc)
		binary.BigEndian.PutUint64(out[i:], prev)
	}
	return out, nil
}

// DecryptCBC reverses EncryptCBC.
func (d *DES) DecryptCBC(iv, ct []byte) ([]byte, error) {
	if len(iv) != DESBlockSize {
		return nil, fmt.Errorf("ciphers: IV must be %d bytes", DESBlockSize)
	}
	if len(ct) == 0 || len(ct)%DESBlockSize != 0 {
		return nil, fmt.Errorf("ciphers: ciphertext length %d not a positive multiple of %d", len(ct), DESBlockSize)
	}
	out := make([]byte, len(ct))
	prev := binary.BigEndian.Uint64(iv)
	for i := 0; i < len(ct); i += DESBlockSize {
		c := binary.BigEndian.Uint64(ct[i:])
		binary.BigEndian.PutUint64(out[i:], crypt(c, &d.dec)^prev)
		prev = c
	}
	return Unpad(out, DESBlockSize)
}
