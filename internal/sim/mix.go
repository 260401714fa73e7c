package sim

// Mix64 is the splitmix64 finalizer: the one seeded hash behind every
// deterministic perturbation (start jitter, NACK and contention backoff,
// fault injection), so each is a pure function of the machine seed with no
// shared RNG stream.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
