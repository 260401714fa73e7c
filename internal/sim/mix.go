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

// Backoff is the one seeded exponential backoff curve (contention-policy
// retries and NACK retries): the n-th retry (n >= 1) waits
// base<<min(n-1, maxShift) plus a jitter below that delay drawn from
// Mix64(key), so it lies in [d, 2d). The caller builds key from the
// machine seed, the CPU and n — the StartJitter idiom, no global RNG — so
// contenders retrying in lockstep desynchronise.
func Backoff(base uint64, maxShift uint, n int, key uint64) uint64 {
	d := base << min(uint(n-1), maxShift)
	return d + Mix64(key)%d
}
