package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf uint32) (a, b, c, d uint32)

// cpuModel reads the processor brand string with CPUID, so the stamp
// needs no file outside the checkout.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000); max < 0x80000004 {
		return "unknown"
	}
	var buf [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002 + i)
		for j, v := range []uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(buf[i*16+uint32(j)*4:], v)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf[:]), "\x00"))
}
