package dalvik

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/adler32"
	"math"
	"sort"
)

// Binary layout of an sdex file:
//
//	magic     [4]byte  "SDEX"
//	version   uint16   little-endian
//	checksum  uint32   adler32 of everything after the checksum field
//	strings   pool     (uvarint count, then length-prefixed UTF-8)
//	types     pool     (uvarint count, then string-pool indices)
//	methods   pool     (uvarint count, then class-type, name-string, sig-string indices)
//	classes   uvarint count, then per class in strictly ascending name order:
//	            name-type, super-type(+1, 0=none), iface count + types,
//	            source-string(+1, 0=none), flags,
//	            field count + (name, type, flags),
//	            method count + (name, sig, flags, insn count + insns)
//
// All integers except the header are unsigned varints; signed operands use
// zig-zag encoding. The format favours compactness and a trivially
// streamable decoder over random access — the analysis pipeline always reads
// whole files.

const (
	magic = "SDEX"
	// FormatVersion is the current encoder output version.
	FormatVersion uint16 = 1
)

type pools struct {
	strings   []string
	stringIdx map[string]uint64
	types     []uint64 // indices into strings
	typeIdx   map[string]uint64
	methods   []encodedMethodRef
	methodIdx map[MethodRef]uint64
}

type encodedMethodRef struct {
	class, name, sig uint64 // class is a type index; name/sig are string indices
}

func newPools() *pools {
	return &pools{
		stringIdx: make(map[string]uint64),
		typeIdx:   make(map[string]uint64),
		methodIdx: make(map[MethodRef]uint64),
	}
}

func (p *pools) internString(s string) uint64 {
	if i, ok := p.stringIdx[s]; ok {
		return i
	}
	i := uint64(len(p.strings))
	p.strings = append(p.strings, s)
	p.stringIdx[s] = i
	return i
}

func (p *pools) internType(t string) uint64 {
	if i, ok := p.typeIdx[t]; ok {
		return i
	}
	si := p.internString(t)
	i := uint64(len(p.types))
	p.types = append(p.types, si)
	p.typeIdx[t] = i
	return i
}

func (p *pools) internMethod(r MethodRef) uint64 {
	if i, ok := p.methodIdx[r]; ok {
		return i
	}
	m := encodedMethodRef{
		class: p.internType(r.Class),
		name:  p.internString(r.Name),
		sig:   p.internString(r.Signature),
	}
	i := uint64(len(p.methods))
	p.methods = append(p.methods, m)
	p.methodIdx[r] = i
	return i
}

// Encode serialises the file to the sdex binary format. The classes are
// emitted in name order so that encoding is deterministic regardless of
// construction order.
func Encode(f *File) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	classes := make([]Class, len(f.Classes))
	copy(classes, f.Classes)
	sort.Slice(classes, func(i, j int) bool { return classes[i].Name < classes[j].Name })

	p := newPools()
	var body bytes.Buffer

	// Two passes: the first interns every symbol so the pools are complete,
	// the second writes class bodies referencing them. Interning while
	// writing would also work, but pools-first keeps the layout conventional
	// (pools before the data that indexes into them).
	for i := range classes {
		internClass(p, &classes[i])
	}

	writeUvarint(&body, uint64(len(p.strings)))
	for _, s := range p.strings {
		writeUvarint(&body, uint64(len(s)))
		body.WriteString(s)
	}
	writeUvarint(&body, uint64(len(p.types)))
	for _, si := range p.types {
		writeUvarint(&body, si)
	}
	writeUvarint(&body, uint64(len(p.methods)))
	for _, m := range p.methods {
		writeUvarint(&body, m.class)
		writeUvarint(&body, m.name)
		writeUvarint(&body, m.sig)
	}

	writeUvarint(&body, uint64(len(classes)))
	for i := range classes {
		if err := encodeClass(&body, p, &classes[i]); err != nil {
			return nil, err
		}
	}

	var out bytes.Buffer
	out.Grow(body.Len() + 10)
	out.WriteString(magic)
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:2], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[2:6], adler32.Checksum(body.Bytes()))
	out.Write(hdr[:])
	out.Write(body.Bytes())
	return out.Bytes(), nil
}

func internClass(p *pools, c *Class) {
	p.internType(c.Name)
	if c.SuperName != "" {
		p.internType(c.SuperName)
	}
	for _, it := range c.Interfaces {
		p.internType(it)
	}
	if c.SourceFile != "" {
		p.internString(c.SourceFile)
	}
	for _, fl := range c.Fields {
		p.internString(fl.Name)
		p.internType(fl.Type)
	}
	for i := range c.Methods {
		m := &c.Methods[i]
		p.internString(m.Name)
		p.internString(m.Signature)
		for _, ins := range m.Code {
			switch ins.Op {
			case OpConstString:
				p.internString(ins.Str)
			case OpNewInstance:
				p.internType(ins.Str)
			case OpInvokeVirtual, OpInvokeStatic, OpInvokeDirect, OpInvokeInterface:
				p.internMethod(*ins.Target)
			}
		}
	}
}

func encodeClass(w *bytes.Buffer, p *pools, c *Class) error {
	writeUvarint(w, p.typeIdx[c.Name])
	if c.SuperName == "" {
		writeUvarint(w, 0)
	} else {
		writeUvarint(w, p.typeIdx[c.SuperName]+1)
	}
	writeUvarint(w, uint64(len(c.Interfaces)))
	for _, it := range c.Interfaces {
		writeUvarint(w, p.typeIdx[it])
	}
	if c.SourceFile == "" {
		writeUvarint(w, 0)
	} else {
		writeUvarint(w, p.stringIdx[c.SourceFile]+1)
	}
	writeUvarint(w, uint64(c.Flags))

	writeUvarint(w, uint64(len(c.Fields)))
	for _, fl := range c.Fields {
		writeUvarint(w, p.stringIdx[fl.Name])
		writeUvarint(w, p.typeIdx[fl.Type])
		writeUvarint(w, uint64(fl.Flags))
	}

	writeUvarint(w, uint64(len(c.Methods)))
	for i := range c.Methods {
		m := &c.Methods[i]
		writeUvarint(w, p.stringIdx[m.Name])
		writeUvarint(w, p.stringIdx[m.Signature])
		writeUvarint(w, uint64(m.Flags))
		writeUvarint(w, uint64(len(m.Code)))
		for _, ins := range m.Code {
			if err := encodeInsn(w, p, ins); err != nil {
				return fmt.Errorf("%s.%s: %w", c.Name, m.Name, err)
			}
		}
	}
	return nil
}

func encodeInsn(w *bytes.Buffer, p *pools, ins Instruction) error {
	if ins.Op >= opMax {
		return fmt.Errorf("unencodable opcode %d", ins.Op)
	}
	w.WriteByte(byte(ins.Op))
	switch ins.Op {
	case OpConstString:
		writeUvarint(w, p.stringIdx[ins.Str])
	case OpConstInt, OpIfZ, OpGoto:
		writeVarint(w, ins.Int)
	case OpNewInstance:
		writeUvarint(w, p.typeIdx[ins.Str])
	case OpInvokeVirtual, OpInvokeStatic, OpInvokeDirect, OpInvokeInterface:
		writeUvarint(w, p.methodIdx[*ins.Target])
	}
	return nil
}

func writeUvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

// sanity limit shared with the reader: no single pool may claim more
// entries than could possibly fit in the remaining input.
func poolTooLarge(n uint64, remaining int) bool {
	return n > uint64(remaining) || n > math.MaxInt32
}
