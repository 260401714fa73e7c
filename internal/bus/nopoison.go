//go:build !tlrpoison

package bus

// Poison is false in normal builds: released pooled objects keep their
// contents and the poisoning code compiles away. See poison.go.
const Poison = false
