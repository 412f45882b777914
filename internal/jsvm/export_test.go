package jsvm

// RunWalker runs src on vm with the reference tree walker
// (walker_test.go), for the browsersim parity tests in package jsvm_test.
func RunWalker(vm *VM, src string) (Value, error) { return newWalker(vm).run(src) }
