// Package seccomm implements SecComm, the configurable secure
// communication service of paper section 4.2: a Cactus-style composite
// protocol whose security properties are selected by composing
// micro-protocols. The reproduced configuration is the one the paper
// measured — a coordinator plus two privacy micro-protocols (DES and a
// trivial XOR), with the optional KeyedMD5 integrity micro-protocol also
// available.
//
// Each endpoint owns an event system with the push chain
//
//	MsgFromUser -> (coordinator handlers) -> PushMsg -> MsgToNet
//
// and the pop chain
//
//	MsgFromNet -> (coordinator handlers) -> PopMsg -> MsgToUser.
//
// The privacy micro-protocols bind handlers to PushMsg/PopMsg; the
// message travels between handlers through the shared state cells
// "pushbuf"/"popbuf" (the shared data structures whose repeated
// maintenance the paper counts among event-system overheads). Handlers
// are written in HIR with the cryptographic work in intrinsics, so the
// optimizer can merge and fuse the chains exactly as the paper did —
// and, as in the paper, the crypto itself dominates and bounds the
// overall improvement.
package seccomm

import (
	"errors"
	"fmt"

	"eventopt/internal/ciphers"
	"eventopt/internal/event"
	"eventopt/internal/hir"
	"eventopt/internal/hirrt"
)

// Config selects the micro-protocols of an endpoint. A nil key disables
// the corresponding micro-protocol.
type Config struct {
	// DESKey enables the DESPrivacy micro-protocol (8 bytes).
	DESKey []byte
	// XORKey enables the XORPrivacy micro-protocol (any length).
	XORKey []byte
	// MACKey enables the KeyedMD5Integrity micro-protocol.
	MACKey []byte
	// IV is the CBC initialization vector (8 bytes; required with DESKey).
	IV []byte
	// SignKey enables the RSAAuthenticity micro-protocol on the push
	// path: each outgoing message carries an RSA signature over its MD5
	// digest (requires the private key).
	SignKey *ciphers.RSAKey
	// VerifyKey enables RSAAuthenticity on the pop path: incoming
	// messages must carry a valid signature under this (public) key.
	VerifyKey *ciphers.RSAKey
}

// Endpoint is one side of a SecComm connection.
type Endpoint struct {
	Sys *event.System
	Mod *hirrt.Module

	// Event IDs of the composite protocol.
	MsgFromUser, PushMsg, MsgToNet event.ID
	MsgFromNet, PopMsg, MsgToUser  event.ID
	PopError                       event.ID

	cfg     Config
	des     *ciphers.DES
	xor     *ciphers.XOR
	send    func([]byte)
	deliver func([]byte)

	// Errors counts pop-side failures (bad padding, bad MAC).
	Errors int
}

// New builds an endpoint over a fresh event system.
func New(cfg Config, opts ...event.Option) (*Endpoint, error) {
	e := &Endpoint{cfg: cfg, Sys: event.New(opts...)}
	e.Mod = hirrt.NewModule(e.Sys)

	if cfg.DESKey != nil {
		if len(cfg.IV) != ciphers.DESBlockSize {
			return nil, errors.New("seccomm: DES requires an 8-byte IV")
		}
		var err error
		e.des, err = ciphers.NewDES(cfg.DESKey)
		if err != nil {
			return nil, fmt.Errorf("seccomm: %w", err)
		}
	}
	if cfg.XORKey != nil {
		e.xor = ciphers.NewXOR(cfg.XORKey)
	}
	if cfg.SignKey != nil && cfg.SignKey.D == nil {
		return nil, errors.New("seccomm: SignKey must be a private key")
	}

	e.defineEvents()
	e.registerIntrinsics()
	e.bindCoordinator()
	e.bindPrivacy()
	e.bindIntegrity()
	e.bindAuthenticity()
	e.bindIO()
	return e, nil
}

func (e *Endpoint) defineEvents() {
	s := e.Sys
	e.MsgFromUser = s.Define("msgFromUser")
	e.PushMsg = s.Define("pushMsg")
	e.MsgToNet = s.Define("msgToNet")
	e.MsgFromNet = s.Define("msgFromNet")
	e.PopMsg = s.Define("popMsg")
	e.MsgToUser = s.Define("msgToUser")
	e.PopError = s.Define("popError")
}

// registerIntrinsics exposes the cryptographic and I/O operations to HIR.
// Ciphers with fixed keys/IVs are pure functions of their input; I/O is
// impure.
func (e *Endpoint) registerIntrinsics() {
	m := e.Mod
	m.RegisterIntrinsic("des_enc", true, func(a []hir.Value) hir.Value {
		ct, err := e.des.EncryptCBC(e.cfg.IV, a[0].Bytes())
		if err != nil {
			return hir.None
		}
		return hir.BytesVal(ct)
	})
	m.RegisterIntrinsic("des_dec", true, func(a []hir.Value) hir.Value {
		pt, err := e.des.DecryptCBC(e.cfg.IV, a[0].Bytes())
		if err != nil {
			return hir.None
		}
		return hir.BytesVal(pt)
	})
	m.RegisterIntrinsic("xor_apply", true, func(a []hir.Value) hir.Value {
		return hir.BytesVal(e.xor.Apply(a[0].Bytes()))
	})
	m.RegisterIntrinsic("mac_append", true, func(a []hir.Value) hir.Value {
		msg := a[0].Bytes()
		tag := ciphers.KeyedMD5(e.cfg.MACKey, msg)
		out := make([]byte, 0, len(msg)+ciphers.MD5Size)
		out = append(out, msg...)
		out = append(out, tag[:]...)
		return hir.BytesVal(out)
	})
	m.RegisterIntrinsic("mac_strip", true, func(a []hir.Value) hir.Value {
		msg := a[0].Bytes()
		if len(msg) < ciphers.MD5Size {
			return hir.None
		}
		body := msg[:len(msg)-ciphers.MD5Size]
		if !ciphers.VerifyKeyedMD5(e.cfg.MACKey, body, msg[len(msg)-ciphers.MD5Size:]) {
			return hir.None
		}
		return hir.BytesVal(body)
	})
	m.RegisterIntrinsic("rsa_sign", true, func(a []hir.Value) hir.Value {
		msg := a[0].Bytes()
		digest := ciphers.MD5(msg)
		sig, err := e.cfg.SignKey.Sign(digest[:])
		if err != nil {
			return hir.None
		}
		out := make([]byte, 0, len(msg)+2+len(sig))
		out = append(out, msg...)
		out = append(out, sig...)
		out = append(out, byte(len(sig)>>8), byte(len(sig)))
		return hir.BytesVal(out)
	})
	m.RegisterIntrinsic("rsa_verify", true, func(a []hir.Value) hir.Value {
		msg := a[0].Bytes()
		if len(msg) < 2 {
			return hir.None
		}
		sl := int(msg[len(msg)-2])<<8 | int(msg[len(msg)-1])
		if sl <= 0 || len(msg) < sl+2 {
			return hir.None
		}
		body := msg[:len(msg)-2-sl]
		sig := msg[len(msg)-2-sl : len(msg)-2]
		digest := ciphers.MD5(body)
		if !e.cfg.VerifyKey.Verify(digest[:], sig) {
			return hir.None
		}
		return hir.BytesVal(body)
	})
	m.RegisterIntrinsic("net_send", false, func(a []hir.Value) hir.Value {
		if e.send != nil {
			e.send(a[0].Bytes())
		}
		return hir.None
	})
	m.RegisterIntrinsic("deliver", false, func(a []hir.Value) hir.Value {
		if e.deliver != nil {
			e.deliver(a[0].Bytes())
		}
		return hir.None
	})
	m.RegisterIntrinsic("count_error", false, func(a []hir.Value) hir.Value {
		e.Errors++
		return hir.None
	})
}

// bindCoordinator installs the SecCoord micro-protocol: it owns the push
// and pop buffers and drives the privacy chain (paper: "the third
// [micro-protocol] coordinates the execution of the other two").
func (e *Endpoint) bindCoordinator() {
	// Push side: stage the message, run the privacy chain, hand the
	// result to the network.
	b := hir.NewBuilder("coord_push_stage", 0)
	msg := b.Arg("msg")
	b.Store("pushbuf", msg)
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgFromUser, "coord_push_stage", b.Fn(), event.WithOrder(10), event.WithParams("msg"))

	b = hir.NewBuilder("coord_push_chain", 0)
	buf := b.Load("pushbuf")
	b.Raise("pushMsg", []string{"len"}, []hir.Reg{b.Un(hir.Len, buf)})
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgFromUser, "coord_push_chain", b.Fn(), event.WithOrder(20))

	b = hir.NewBuilder("coord_push_out", 0)
	out := b.Load("pushbuf")
	b.Raise("msgToNet", []string{"msg"}, []hir.Reg{out})
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgFromUser, "coord_push_out", b.Fn(), event.WithOrder(30))

	// Pop side: mirror image.
	b = hir.NewBuilder("coord_pop_stage", 0)
	pkt := b.Arg("msg")
	b.Store("popbuf", pkt)
	zero := b.Int(0)
	b.Store("poperr", zero)
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgFromNet, "coord_pop_stage", b.Fn(), event.WithOrder(10), event.WithParams("msg"))

	b = hir.NewBuilder("coord_pop_chain", 0)
	pb := b.Load("popbuf")
	b.Raise("popMsg", []string{"len"}, []hir.Reg{b.Un(hir.Len, pb)})
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgFromNet, "coord_pop_chain", b.Fn(), event.WithOrder(20))

	b = hir.NewBuilder("coord_pop_out", 0)
	errFlag := b.Load("poperr")
	bad := b.NewBlock()
	good := b.NewBlock()
	b.SetBlock(hir.Entry)
	b.Branch(errFlag, bad, good)
	b.SetBlock(bad)
	one := b.Int(1)
	b.RaiseAsync("popError", []string{"n"}, []hir.Reg{one})
	b.Return(hir.NoReg)
	b.SetBlock(good)
	outb := b.Load("popbuf")
	b.Raise("msgToUser", []string{"msg"}, []hir.Reg{outb})
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgFromNet, "coord_pop_out", b.Fn(), event.WithOrder(30))
}

// privacyStage builds the HIR body of one privacy/integrity transform on
// a buffer cell: cell = intrinsic(cell); on None, flag the error and halt
// the remaining handlers of the event.
func privacyStage(name, intrinsic, cell string, failable bool) *hir.Function {
	b := hir.NewBuilder(name, 0)
	buf := b.Load(cell)
	out := b.Call(intrinsic, buf)
	if !failable {
		b.Store(cell, out)
		b.Return(hir.NoReg)
		return b.Fn()
	}
	okB := b.NewBlock()
	failB := b.NewBlock()
	b.SetBlock(hir.Entry)
	none := b.Const(hir.None)
	isNone := b.Bin(hir.Eq, out, none)
	b.Branch(isNone, failB, okB)
	b.SetBlock(failB)
	one := b.Int(1)
	b.Store("poperr", one)
	b.Call("count_error", one)
	b.Halt()
	b.SetBlock(okB)
	b.Store(cell, out)
	b.Return(hir.NoReg)
	return b.Fn()
}

// bindPrivacy installs the configured privacy micro-protocols. On the
// push path DES runs before XOR; the pop path reverses the order.
func (e *Endpoint) bindPrivacy() {
	if e.des != nil {
		e.Mod.Bind(e.PushMsg, "des_encrypt", privacyStage("des_encrypt", "des_enc", "pushbuf", false), event.WithOrder(10))
		e.Mod.Bind(e.PopMsg, "des_decrypt", privacyStage("des_decrypt", "des_dec", "popbuf", true), event.WithOrder(30))
	}
	if e.xor != nil {
		e.Mod.Bind(e.PushMsg, "xor_encrypt", privacyStage("xor_encrypt", "xor_apply", "pushbuf", false), event.WithOrder(20))
		e.Mod.Bind(e.PopMsg, "xor_decrypt", privacyStage("xor_decrypt", "xor_apply", "popbuf", false), event.WithOrder(20))
	}
}

// bindIntegrity installs KeyedMD5Integrity: the MAC is appended last on
// push (outermost) and verified first on pop.
func (e *Endpoint) bindIntegrity() {
	if e.cfg.MACKey == nil {
		return
	}
	e.Mod.Bind(e.PushMsg, "md5_mac", privacyStage("md5_mac", "mac_append", "pushbuf", false), event.WithOrder(30))
	e.Mod.Bind(e.PopMsg, "md5_verify", privacyStage("md5_verify", "mac_strip", "popbuf", true), event.WithOrder(10))
}

// bindAuthenticity installs RSAAuthenticity (Fig. 2): the signature is
// the outermost layer — appended after every other push transform and
// checked before any pop transform.
func (e *Endpoint) bindAuthenticity() {
	if e.cfg.SignKey != nil {
		e.Mod.Bind(e.PushMsg, "rsa_sign", privacyStage("rsa_sign", "rsa_sign", "pushbuf", true), event.WithOrder(40))
	}
	if e.cfg.VerifyKey != nil {
		e.Mod.Bind(e.PopMsg, "rsa_verify", privacyStage("rsa_verify", "rsa_verify", "popbuf", true), event.WithOrder(5))
	}
}

// bindIO installs the boundary handlers.
func (e *Endpoint) bindIO() {
	b := hir.NewBuilder("net_out", 0)
	msg := b.Arg("msg")
	b.Call("net_send", msg)
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgToNet, "net_out", b.Fn(), event.WithParams("msg"))

	b = hir.NewBuilder("user_in", 0)
	m2 := b.Arg("msg")
	b.Call("deliver", m2)
	b.Return(hir.NoReg)
	e.Mod.Bind(e.MsgToUser, "user_in", b.Fn(), event.WithParams("msg"))

	b = hir.NewBuilder("pop_error", 0)
	b.Return(hir.NoReg)
	e.Mod.Bind(e.PopError, "pop_error", b.Fn())
}

// OnSend installs the link-transmit callback (push output).
func (e *Endpoint) OnSend(fn func([]byte)) { e.send = fn }

// OnDeliver installs the application-receive callback (pop output).
func (e *Endpoint) OnDeliver(fn func([]byte)) { e.deliver = fn }

// Push sends one application message through the push chain.
func (e *Endpoint) Push(msg []byte) {
	e.Sys.Raise(e.MsgFromUser, event.Bytes("msg", msg))
}

// HandlePacket feeds one packet from the link into the pop chain.
func (e *Endpoint) HandlePacket(pkt []byte) {
	e.Sys.Raise(e.MsgFromNet, event.Bytes("msg", pkt))
}

// Pair wires two endpoints with identical configuration back-to-back
// through a synchronous in-memory link, the shape of the paper's
// sender/receiver measurement: a.Push(...) arrives at b's deliver
// callback and vice versa.
func Pair(cfg Config) (a, b *Endpoint, err error) {
	a, err = New(cfg)
	if err != nil {
		return nil, nil, err
	}
	b, err = New(cfg)
	if err != nil {
		return nil, nil, err
	}
	a.OnSend(func(pkt []byte) { b.HandlePacket(append([]byte(nil), pkt...)) })
	b.OnSend(func(pkt []byte) { a.HandlePacket(append([]byte(nil), pkt...)) })
	return a, b, nil
}
