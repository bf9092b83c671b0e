package core

// The update-notification datagram: one field sequence over internal/wire.
// It is the smallest, most frequent message in the system (§2.5: one
// best-effort datagram per update), a few dozen bytes; encoding cannot fail,
// and a datagram that fails to decode (truncated or corrupt) is counted by
// the receiving host instead of vanishing.

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// notifyWireVersion leads every notification; bumping it invalidates old
// peers loudly instead of misparsing them.  v2 added the gossip envelope
// (hop budget, rumor sequence, source address).
const notifyWireVersion = 2

// encodeNotify renders msg: version u8, vol (u32+u32), origin u32,
// file fid(12), hops u8, seq u64, src (uvarint length + bytes),
// dir-path count uvarint + fids (12 each).
func encodeNotify(msg *notifyMsg) []byte {
	dst := make([]byte, 0, 40+len(msg.Src)+12*len(msg.Dir))
	dst = wire.AppendU8(dst, notifyWireVersion)
	dst = wire.AppendVol(dst, msg.Vol)
	dst = wire.AppendU32(dst, uint32(msg.Origin))
	dst = wire.AppendFID(dst, msg.File)
	dst = wire.AppendU8(dst, msg.Hops)
	dst = wire.AppendU64(dst, msg.Seq)
	dst = wire.AppendString(dst, string(msg.Src))
	return wire.AppendPath(dst, msg.Dir)
}

func decodeNotify(b []byte) (notifyMsg, error) {
	d := wire.NewDecoder(b)
	d.Version(notifyWireVersion)
	var msg notifyMsg
	msg.Vol = d.Vol()
	msg.Origin = ids.ReplicaID(d.U32())
	msg.File = d.FID()
	msg.Hops = d.U8()
	msg.Seq = d.U64()
	msg.Src = simnet.Addr(d.Str())
	msg.Dir = d.Path()
	if err := d.Finish(); err != nil {
		return notifyMsg{}, fmt.Errorf("core: bad notification: %w", err)
	}
	return msg, nil
}
