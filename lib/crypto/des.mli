(** The Data Encryption Standard (FIPS 46), the cipher Kerberos V4 and the
    V5 drafts are built on.

    Blocks and keys are 8 bytes. The hot path is table-driven — the S-box
    and P permutations are fused into eight precomputed SP tables, the E
    expansion is a shift/mask window, and IP/FP are five-step bit-swap
    networks. The key schedule ORs PC1 and PC2 out of precomputed tables
    indexed by key bytes and 7-bit chunks of the rotated halves. Both are
    validated in the test suite against the classic NBS known-answer vectors
    and against the bit-by-bit {!Reference} implementation. *)

type key
(** A scheduled key (the 16 48-bit subkeys, in both encrypt and decrypt
    order). *)

val block_size : int
(** 8. *)

val schedule : bytes -> key
(** [schedule k] expands an 8-byte key. Parity bits (the low bit of each
    byte) are ignored, as in the standard.
    @raise Invalid_argument if [k] is not 8 bytes. *)

val key_bytes : key -> bytes
(** The original 8-byte key material (with its parity bits untouched). *)

val schedule_cached : bytes -> key
(** [schedule_cached k] is [schedule (fix_parity k)], memoized on the raw
    key bytes. Long-lived Kerberos keys are sealed under thousands of
    times, and a schedule costs about as much as enciphering a block, so
    the hot paths route through this. Semantically identical to rescheduling
    every time (the equivalence tests pin this); the memo table is bounded
    and dropped wholesale when full. *)

val set_schedule_cache : bool -> unit
(** Enable/disable the [schedule_cached] memo table (clears it when turning
    off). On by default; the off position exists for equivalence tests and
    bench ablations. *)

val schedule_cache_enabled : unit -> bool

val schedules_performed : unit -> int
(** Process-wide count of key-schedule computations actually performed
    (cache hits don't count). Lets tests assert a session schedules its key
    exactly once. *)

val blocks_performed : unit -> int
(** Process-wide count of single-block DES operations (every mode bottoms
    out here). The load harness uses it to apportion wall time between
    irreducible cipher work and everything else. *)

val encrypt_block : key -> bytes -> bytes
(** [encrypt_block k b] enciphers one 8-byte block. *)

val decrypt_block : key -> bytes -> bytes
(** [decrypt_block k b] deciphers one 8-byte block. *)

val encrypt_block_i64 : key -> int64 -> int64
(** [encrypt_block_i64 k b] enciphers one block held as a big-endian int64
    (bit 63 is the block's first bit), with no [bytes] round-trip. *)

val decrypt_block_i64 : key -> int64 -> int64

type halves = { mutable hi : int; mutable lo : int }
(** One block as two 32-bit words ([hi] first). A scratch cell the block
    modes allocate once per call and reuse for every block. *)

val encrypt_halves : key -> halves -> unit
(** [encrypt_halves k st] enciphers the block in [st] in place. Allocates
    nothing; this is the hot entry point the streaming modes are built on. *)

val decrypt_halves : key -> halves -> unit

module Reference : sig
  val schedule : bytes -> key
  (** The key schedule computed bit by bit through PC1 and PC2. Not counted
      by {!schedules_performed}. *)

  val encrypt_block : key -> bytes -> bytes
  val decrypt_block : key -> bytes -> bytes
end
(** The original permute-per-round implementation, kept as the oracle that
    pins the table-driven path to the old semantics in the property tests.
    Roughly 30x slower; never used outside the test suite. *)

val fix_parity : bytes -> bytes
(** [fix_parity k] returns a copy with each byte's low bit set to give odd
    parity, the DES key convention. *)

val is_weak : bytes -> bool
(** True for the four weak and twelve semi-weak DES keys (parity bits
    ignored); false for any input that is not 8 bytes. The simulated KDC
    rejects these when generating session keys. Allocates nothing. *)

val random_key : Util.Rng.t -> bytes
(** A fresh parity-fixed, non-weak key. *)
