(** Exponential key exchange (Diffie–Hellman 1976), the paper's proposed
    "additional layer of encryption" for the login dialog, preventing a
    passive wiretapper from accumulating password-guessing material.

    Groups range from deliberately-tiny moduli (crackable by {!Dlog}, making
    the LaMacchia–Odlyzko point that "exchanging small numbers is quite
    insecure") up to Mersenne-prime moduli of 521+ bits ("using large ones
    is expensive in computation time" — measured in the benchmark suite). *)

type group = { p : Bignum.t; g : Bignum.t; name : string }

val toy_group : bits:int -> group
(** A small group for the crack-time sweep. Supported sizes:
    16, 20, 24, 28, 31, 36 and 40 bits (primes hardcoded and checked in the
    test suite). @raise Invalid_argument otherwise. *)

val mersenne_group : exponent:int -> group
(** The group modulo the Mersenne prime [2^exponent - 1], generator 7.
    Supported exponents: 61, 89, 107, 127, 521, 607. *)

val group : bits:int -> group
(** Dispatch: a toy group for toy sizes, a Mersenne group when [bits] is a
    supported Mersenne exponent. *)

type keypair = { secret : Bignum.t; public : Bignum.t }

val generate : Util.Rng.t -> group -> keypair
val peer_public : group -> bytes -> (Bignum.t, string) result
(** Decode the peer's big-endian exponential [y], accepting only
    [1 < y < p-1]. The values 0, 1 and [p-1], and anything reduced to them
    modulo [p], confine the shared secret to [{0, 1, p-1}], which an active
    attacker can predict; rejecting [y >= p] also spares reducing an
    arbitrarily long number. *)

val shared_secret : group -> keypair -> Bignum.t -> Bignum.t
(** [shared_secret grp kp their_public]. *)

val secret_to_key : group -> Bignum.t -> bytes
(** Hash the shared secret down to a parity-fixed DES key. *)
