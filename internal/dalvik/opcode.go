package dalvik

import "fmt"

// Opcode enumerates the instruction set of the sdex format. The set is a
// deliberately small projection of Dalvik: enough to express object
// construction, method invocation, string/int constants and simple control
// flow, which is all the static analyses in this repository consume.
type Opcode uint8

// Instruction opcodes.
const (
	OpNop             Opcode = iota
	OpConstString            // push a string-pool constant
	OpConstInt               // push an integer constant
	OpNewInstance            // allocate an instance of a type
	OpInvokeVirtual          // virtual dispatch on a MethodRef
	OpInvokeStatic           // static call on a MethodRef
	OpInvokeDirect           // constructor / private call on a MethodRef
	OpInvokeInterface        // interface dispatch on a MethodRef
	OpMoveResult             // capture the result of the previous invoke
	OpIfZ                    // conditional branch (guards a region of code)
	OpGoto                   // unconditional branch
	OpReturnVoid             // return without a value
	OpReturnValue            // return the top value
	OpThrow                  // raise an exception
	opMax                    // sentinel, not encodable
)

var opcodeNames = [...]string{
	OpNop:             "nop",
	OpConstString:     "const-string",
	OpConstInt:        "const-int",
	OpNewInstance:     "new-instance",
	OpInvokeVirtual:   "invoke-virtual",
	OpInvokeStatic:    "invoke-static",
	OpInvokeDirect:    "invoke-direct",
	OpInvokeInterface: "invoke-interface",
	OpMoveResult:      "move-result",
	OpIfZ:             "if-z",
	OpGoto:            "goto",
	OpReturnVoid:      "return-void",
	OpReturnValue:     "return-value",
	OpThrow:           "throw",
}

// String returns the mnemonic for the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsInvoke reports whether the opcode is one of the four invoke forms.
func (o Opcode) IsInvoke() bool {
	switch o {
	case OpInvokeVirtual, OpInvokeStatic, OpInvokeDirect, OpInvokeInterface:
		return true
	}
	return false
}

// Instruction is a single decoded sdex instruction, 40 bytes on 64-bit
// platforms. Exactly which operand fields are meaningful depends on the
// opcode:
//
//	OpConstString           Str (the literal)
//	OpConstInt              Int
//	OpNewInstance           Str (the type)
//	OpInvoke*               Target
//	OpIfZ, OpGoto           Int (relative branch offset in instructions)
//
// Keeping operands symbolic (strings and MethodRefs rather than pool
// indices) makes the in-memory form independent of any particular encoding;
// the writer interns them into pools. Target is shared: Decode points every
// invoke of one method-pool entry at that entry, so a consumer reads
// through it and never writes.
type Instruction struct {
	Op     Opcode
	Str    string
	Int    int64
	Target *MethodRef
}

func (ins Instruction) validate() error {
	switch ins.Op {
	case OpNop, OpMoveResult, OpReturnVoid, OpReturnValue, OpThrow:
		return nil
	case OpConstString, OpConstInt, OpIfZ, OpGoto:
		return nil
	case OpNewInstance:
		if ins.Str == "" {
			return fmt.Errorf("new-instance with empty type")
		}
		return nil
	case OpInvokeVirtual, OpInvokeStatic, OpInvokeDirect, OpInvokeInterface:
		if ins.Target == nil {
			return fmt.Errorf("%s without a target", ins.Op)
		}
		if ins.Target.Class == "" || ins.Target.Name == "" {
			return fmt.Errorf("%s with incomplete target %q", ins.Op, ins.Target)
		}
		return nil
	default:
		return fmt.Errorf("unknown opcode %d", ins.Op)
	}
}

// String renders the instruction in disassembly form.
func (ins Instruction) String() string {
	switch ins.Op {
	case OpConstString:
		return fmt.Sprintf("%s %q", ins.Op, ins.Str)
	case OpConstInt, OpIfZ, OpGoto:
		return fmt.Sprintf("%s %d", ins.Op, ins.Int)
	case OpNewInstance:
		return fmt.Sprintf("%s %s", ins.Op, ins.Str)
	case OpInvokeVirtual, OpInvokeStatic, OpInvokeDirect, OpInvokeInterface:
		return fmt.Sprintf("%s %s", ins.Op, ins.Target)
	default:
		return ins.Op.String()
	}
}

// Convenience constructors keep corpus-generation code terse. Each invoke
// constructor allocates its own Target.

// ConstString builds an OpConstString instruction.
func ConstString(s string) Instruction { return Instruction{Op: OpConstString, Str: s} }

// ConstInt builds an OpConstInt instruction.
func ConstInt(v int64) Instruction { return Instruction{Op: OpConstInt, Int: v} }

// NewInstance builds an OpNewInstance instruction.
func NewInstance(typ string) Instruction { return Instruction{Op: OpNewInstance, Str: typ} }

// InvokeVirtual builds an OpInvokeVirtual instruction.
func InvokeVirtual(class, name, sig string) Instruction {
	return Instruction{Op: OpInvokeVirtual, Target: &MethodRef{Class: class, Name: name, Signature: sig}}
}

// InvokeStatic builds an OpInvokeStatic instruction.
func InvokeStatic(class, name, sig string) Instruction {
	return Instruction{Op: OpInvokeStatic, Target: &MethodRef{Class: class, Name: name, Signature: sig}}
}

// InvokeDirect builds an OpInvokeDirect instruction.
func InvokeDirect(class, name, sig string) Instruction {
	return Instruction{Op: OpInvokeDirect, Target: &MethodRef{Class: class, Name: name, Signature: sig}}
}

// InvokeInterface builds an OpInvokeInterface instruction.
func InvokeInterface(class, name, sig string) Instruction {
	return Instruction{Op: OpInvokeInterface, Target: &MethodRef{Class: class, Name: name, Signature: sig}}
}

// Return builds an OpReturnVoid instruction.
func Return() Instruction { return Instruction{Op: OpReturnVoid} }
