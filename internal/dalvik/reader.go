package dalvik

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"io"
)

// Decoding errors. ErrCorrupt wraps all structural failures so that callers
// (the analysis pipeline tolerates "broken APKs", mirroring the 242 broken
// files in the paper's dataset) can classify them with errors.Is.
var (
	ErrBadMagic   = errors.New("dalvik: bad magic")
	ErrBadVersion = errors.New("dalvik: unsupported version")
	ErrChecksum   = errors.New("dalvik: checksum mismatch")
	ErrCorrupt    = errors.New("dalvik: corrupt file")
)

// reader decodes the body of an sdex image in place: buf is what is left
// of it.
type reader struct {
	buf []byte
}

func (d *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errVarint
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *reader) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, errVarint
	}
	d.buf = d.buf[n:]
	return v, nil
}

// errVarint reports a varint the body ends inside, or one over 64 bits.
var errVarint = fmt.Errorf("%w: truncated or overlong varint", ErrCorrupt)

// str reads an n-byte string: one copy, straight from the body.
func (d *reader) str(n uint64) (string, error) {
	if poolTooLarge(n, len(d.buf)) {
		return "", fmt.Errorf("%w: string length %d exceeds input", ErrCorrupt, n)
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

// Decode parses an sdex binary image produced by Encode. It verifies the
// magic, version and checksum before touching the pools, so corrupt input is
// rejected early and deterministically. Like Validate, it rejects a class
// or a method within a class defined twice: Encode writes classes in
// strictly ascending name order, so a class out of that order is corrupt.
//
// The method pool is decoded once, and every invoke of one pool entry
// points its Target at that entry: the decoded file's Targets are shared
// and read-only.
func Decode(data []byte) (*File, error) {
	if len(data) < 10 {
		return nil, fmt.Errorf("%w: short file (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	sum := binary.LittleEndian.Uint32(data[6:10])
	body := data[10:]
	if adler32.Checksum(body) != sum {
		return nil, ErrChecksum
	}

	d := &reader{buf: body}

	strs, err := d.readStringPool()
	if err != nil {
		return nil, err
	}
	types, err := d.readTypePool(strs)
	if err != nil {
		return nil, err
	}
	methods, err := d.readMethodPool(strs, types)
	if err != nil {
		return nil, err
	}

	nClasses, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if poolTooLarge(nClasses, len(d.buf)+1) {
		return nil, fmt.Errorf("%w: class count %d exceeds input", ErrCorrupt, nClasses)
	}
	f := &File{Version: version, Classes: make([]Class, 0, nClasses)}
	for i := uint64(0); i < nClasses; i++ {
		c, err := d.readClass(strs, types, methods)
		if err != nil {
			return nil, fmt.Errorf("class %d: %w", i, err)
		}
		if n := len(f.Classes); n > 0 && c.Name <= f.Classes[n-1].Name {
			return nil, fmt.Errorf("%w: class %q repeated or out of name order", ErrCorrupt, c.Name)
		}
		if repeatedMethod(c.Methods) {
			return nil, fmt.Errorf("%w: class %q defines a method twice", ErrCorrupt, c.Name)
		}
		f.Classes = append(f.Classes, c)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return f, nil
}

func (d *reader) readStringPool() ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if poolTooLarge(n, len(d.buf)+1) {
		return nil, fmt.Errorf("%w: string pool size %d", ErrCorrupt, n)
	}
	pool := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		s, err := d.str(l)
		if err != nil {
			return nil, err
		}
		pool = append(pool, s)
	}
	return pool, nil
}

func (d *reader) readTypePool(strs []string) ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if poolTooLarge(n, len(d.buf)+1) {
		return nil, fmt.Errorf("%w: type pool size %d", ErrCorrupt, n)
	}
	pool := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		si, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if si >= uint64(len(strs)) {
			return nil, fmt.Errorf("%w: type %d references string %d of %d", ErrCorrupt, i, si, len(strs))
		}
		pool = append(pool, strs[si])
	}
	return pool, nil
}

func (d *reader) readMethodPool(strs, types []string) ([]MethodRef, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if poolTooLarge(n, len(d.buf)+1) {
		return nil, fmt.Errorf("%w: method pool size %d", ErrCorrupt, n)
	}
	pool := make([]MethodRef, 0, n)
	for i := uint64(0); i < n; i++ {
		ci, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		ni, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		si, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if ci >= uint64(len(types)) || ni >= uint64(len(strs)) || si >= uint64(len(strs)) {
			return nil, fmt.Errorf("%w: method %d has out-of-range indices", ErrCorrupt, i)
		}
		pool = append(pool, MethodRef{Class: types[ci], Name: strs[ni], Signature: strs[si]})
	}
	return pool, nil
}

func (d *reader) readClass(strs, types []string, methods []MethodRef) (Class, error) {
	var c Class
	nameIdx, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if nameIdx >= uint64(len(types)) {
		return c, fmt.Errorf("%w: class name index %d", ErrCorrupt, nameIdx)
	}
	c.Name = types[nameIdx]

	superIdx, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if superIdx > 0 {
		if superIdx-1 >= uint64(len(types)) {
			return c, fmt.Errorf("%w: superclass index %d", ErrCorrupt, superIdx)
		}
		c.SuperName = types[superIdx-1]
	}

	nIfaces, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if poolTooLarge(nIfaces, len(d.buf)+1) {
		return c, fmt.Errorf("%w: interface count %d", ErrCorrupt, nIfaces)
	}
	if nIfaces > 0 {
		c.Interfaces = make([]string, 0, nIfaces)
	}
	for i := uint64(0); i < nIfaces; i++ {
		ti, err := d.uvarint()
		if err != nil {
			return c, err
		}
		if ti >= uint64(len(types)) {
			return c, fmt.Errorf("%w: interface index %d", ErrCorrupt, ti)
		}
		c.Interfaces = append(c.Interfaces, types[ti])
	}

	srcIdx, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if srcIdx > 0 {
		if srcIdx-1 >= uint64(len(strs)) {
			return c, fmt.Errorf("%w: source-file index %d", ErrCorrupt, srcIdx)
		}
		c.SourceFile = strs[srcIdx-1]
	}

	flags, err := d.uvarint()
	if err != nil {
		return c, err
	}
	c.Flags = AccessFlag(flags)

	nFields, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if poolTooLarge(nFields, len(d.buf)+1) {
		return c, fmt.Errorf("%w: field count %d", ErrCorrupt, nFields)
	}
	if nFields > 0 {
		c.Fields = make([]Field, 0, nFields)
	}
	for i := uint64(0); i < nFields; i++ {
		ni, err := d.uvarint()
		if err != nil {
			return c, err
		}
		ti, err := d.uvarint()
		if err != nil {
			return c, err
		}
		fl, err := d.uvarint()
		if err != nil {
			return c, err
		}
		if ni >= uint64(len(strs)) || ti >= uint64(len(types)) {
			return c, fmt.Errorf("%w: field %d out-of-range indices", ErrCorrupt, i)
		}
		c.Fields = append(c.Fields, Field{Name: strs[ni], Type: types[ti], Flags: AccessFlag(fl)})
	}

	nMethods, err := d.uvarint()
	if err != nil {
		return c, err
	}
	if poolTooLarge(nMethods, len(d.buf)+1) {
		return c, fmt.Errorf("%w: method count %d", ErrCorrupt, nMethods)
	}
	if nMethods > 0 {
		c.Methods = make([]Method, 0, nMethods)
	}
	for i := uint64(0); i < nMethods; i++ {
		m, err := d.readMethod(strs, types, methods)
		if err != nil {
			return c, fmt.Errorf("method %d: %w", i, err)
		}
		c.Methods = append(c.Methods, m)
	}
	return c, nil
}

func (d *reader) readMethod(strs, types []string, methods []MethodRef) (Method, error) {
	var m Method
	ni, err := d.uvarint()
	if err != nil {
		return m, err
	}
	si, err := d.uvarint()
	if err != nil {
		return m, err
	}
	fl, err := d.uvarint()
	if err != nil {
		return m, err
	}
	if ni >= uint64(len(strs)) || si >= uint64(len(strs)) {
		return m, fmt.Errorf("%w: method name/sig index out of range", ErrCorrupt)
	}
	m.Name, m.Signature, m.Flags = strs[ni], strs[si], AccessFlag(fl)

	nInsns, err := d.uvarint()
	if err != nil {
		return m, err
	}
	if poolTooLarge(nInsns, len(d.buf)+1) {
		return m, fmt.Errorf("%w: instruction count %d", ErrCorrupt, nInsns)
	}
	m.Code = make([]Instruction, 0, nInsns)
	for i := uint64(0); i < nInsns; i++ {
		ins, err := d.readInsn(strs, types, methods)
		if err != nil {
			return m, fmt.Errorf("insn %d: %w", i, err)
		}
		m.Code = append(m.Code, ins)
	}
	return m, nil
}

func (d *reader) readInsn(strs, types []string, methods []MethodRef) (Instruction, error) {
	var ins Instruction
	if len(d.buf) == 0 {
		return ins, fmt.Errorf("%w: %v", ErrCorrupt, io.EOF)
	}
	opByte := d.buf[0]
	d.buf = d.buf[1:]
	ins.Op = Opcode(opByte)
	if ins.Op >= opMax {
		return ins, fmt.Errorf("%w: unknown opcode %d", ErrCorrupt, opByte)
	}
	switch ins.Op {
	case OpConstString:
		si, err := d.uvarint()
		if err != nil {
			return ins, err
		}
		if si >= uint64(len(strs)) {
			return ins, fmt.Errorf("%w: const-string index %d", ErrCorrupt, si)
		}
		ins.Str = strs[si]
	case OpConstInt, OpIfZ, OpGoto:
		v, err := d.varint()
		if err != nil {
			return ins, err
		}
		ins.Int = v
	case OpNewInstance:
		ti, err := d.uvarint()
		if err != nil {
			return ins, err
		}
		if ti >= uint64(len(types)) {
			return ins, fmt.Errorf("%w: new-instance index %d", ErrCorrupt, ti)
		}
		ins.Str = types[ti]
	case OpInvokeVirtual, OpInvokeStatic, OpInvokeDirect, OpInvokeInterface:
		mi, err := d.uvarint()
		if err != nil {
			return ins, err
		}
		if mi >= uint64(len(methods)) {
			return ins, fmt.Errorf("%w: invoke index %d", ErrCorrupt, mi)
		}
		ins.Target = &methods[mi]
	}
	return ins, nil
}
