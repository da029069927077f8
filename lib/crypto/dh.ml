type group = { p : Bignum.t; g : Bignum.t; name : string }

(* Small primes chosen with a small generator of a large subgroup; their
   primality is asserted by the test suite via Miller-Rabin. *)
let toy_primes =
  [ (16, 0xFFF1); (* 65521 *)
    (20, 0xFFFFD); (* 1048573 *)
    (24, 0xFFFFFD); (* 16777213 *)
    (28, 0xFFFFFC7); (* 2^28 - 57 *)
    (31, 0x7FFFFFFF); (* 2^31 - 1, Mersenne *)
    (36, 0xFFFFFFFFB); (* 2^36 - 5 *)
    (40, 0xFFFFFFFFA9) (* 2^40 - 87 *) ]

let toy_group ~bits =
  match List.assoc_opt bits toy_primes with
  | None -> invalid_arg "Dh.toy_group: unsupported size"
  | Some p ->
      { p = Bignum.of_int p; g = Bignum.of_int 7; name = Printf.sprintf "toy-%db" bits }

let mersenne_exponents = [ 61; 89; 107; 127; 521; 607 ]

let mersenne_group ~exponent =
  if not (List.mem exponent mersenne_exponents) then
    invalid_arg "Dh.mersenne_group: unsupported exponent";
  let p = Bignum.sub (Bignum.shift_left Bignum.one exponent) Bignum.one in
  { p; g = Bignum.of_int 7; name = Printf.sprintf "mersenne-%d" exponent }

let group ~bits =
  if List.mem_assoc bits toy_primes then toy_group ~bits
  else if List.mem bits mersenne_exponents then mersenne_group ~exponent:bits
  else invalid_arg "Dh.group: unsupported size"

type keypair = { secret : Bignum.t; public : Bignum.t }

let generate rng grp =
  (* secret in [2, p-2] *)
  let bound = Bignum.sub grp.p (Bignum.of_int 3) in
  let secret = Bignum.add (Bignum.random_below rng bound) Bignum.two in
  { secret; public = Bignum.mod_pow ~base:grp.g ~exp:secret ~modulus:grp.p }

let peer_public grp b =
  let y = Bignum.of_bytes_be b in
  if Bignum.compare y Bignum.one > 0 && Bignum.compare y (Bignum.sub grp.p Bignum.one) < 0
  then Ok y
  else Error "peer exponential out of range"

let shared_secret grp kp their_public =
  Bignum.mod_pow ~base:their_public ~exp:kp.secret ~modulus:grp.p

let secret_to_key grp secret =
  let size = (Bignum.num_bits grp.p + 7) / 8 in
  let raw = Bignum.to_bytes_be ~size secret in
  let h = Md4.digest raw in
  Des.fix_parity (Bytes.sub h 0 8)
