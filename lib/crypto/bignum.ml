(* Little-endian limbs in base 2^26. 26-bit limbs keep every intermediate of
   schoolbook multiplication (limb*limb + carry + acc <= 2^52 + 2^53) well
   inside OCaml's 63-bit native ints. The zero value is the empty array;
   all values are kept normalized (no leading zero limbs). *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v = if v = 0 then [] else (v land limb_mask) :: limbs (v lsr limb_bits) in
  Array.of_list (limbs v)

let one = of_int 1
let two = of_int 2

let is_zero (a : t) = Array.length a = 0

(* Bit length of one limb. *)
let rec width v = if v = 0 then 0 else 1 + width (v lsr 1)

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + width a.(n - 1)

let to_int_opt (a : t) =
  if num_bits a > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length a - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end

let compare (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na <> nb then Stdlib.compare na nb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (na - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  let n = max na nb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < na then a.(i) else 0) + (if i < nb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let borrow = ref 0 in
  for i = 0 to na - 1 do
    let d = a.(i) - (if i < nb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then zero
  else begin
    let out = Array.make (na + nb) 0 in
    for i = 0 to na - 1 do
      let carry = ref 0 in
      for j = 0 to nb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + nb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let shift_left (a : t) bits : t =
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let na = Array.length a in
    let out = Array.make (na + limb_shift + 1) 0 in
    for i = 0 to na - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize out
  end

let shift_right (a : t) bits : t =
  if bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let na = Array.length a in
    if limb_shift >= na then zero
    else begin
      let n = na - limb_shift in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= na then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* [dst.(0 .. len-1)] <- [src.(0 .. len-1)] shifted left by [s < limb_bits]
   bits, dropping what leaves the top limb. [dst] may be [src]. *)
let shl_into src dst len s =
  for i = len - 1 downto 1 do
    dst.(i) <- ((src.(i) lsl s) land limb_mask) lor (src.(i - 1) lsr (limb_bits - s))
  done;
  dst.(0) <- (src.(0) lsl s) land limb_mask

(* [dst.(0 .. len-1)] <- [src.(0 .. len)] shifted right by [s < limb_bits]
   bits. *)
let shr_into src dst len s =
  for i = 0 to len - 1 do
    dst.(i) <- (src.(i) lsr s) lor ((src.(i + 1) lsl (limb_bits - s)) land limb_mask)
  done

(* Limb-wise schoolbook division (Knuth TAOCP vol. 2, Algorithm D, steps
   D2-D7), in place: O(limbs of quotient * limbs of divisor). [v] is an
   [nb]-limb divisor normalized (D1) so its top limb has the high bit set,
   which keeps the quotient-digit estimate from the top two limbs off by
   at most 2; [u] is the dividend shifted by the same amount, with
   [m + nb + 1] limbs in use. On return [u.(0 .. nb-1)] holds the remainder,
   still shifted, and [q.(0 .. m)] the quotient. All intermediates fit the
   63-bit native int: two-limb numerators and limb*limb products stay
   under 2^53. *)
let div_in_place u ~m v ~nb q =
  let vtop = v.(nb - 1) and vsec = if nb > 1 then v.(nb - 2) else 0 in
  for j = m downto 0 do
    (* D3: estimate the quotient digit from the top two limbs, then
       correct it with the third. *)
    let num = (u.(j + nb) lsl limb_bits) lor u.(j + nb - 1) in
    let third = if nb > 1 then u.(j + nb - 2) else 0 in
    let qhat = ref (num / vtop) in
    let rhat = ref (num - (!qhat * vtop)) in
    let adjusting = ref true in
    while !adjusting do
      if !qhat >= limb_base || !qhat * vsec > (!rhat lsl limb_bits) lor third then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= limb_base then adjusting := false
      end
      else adjusting := false
    done;
    (* D4: multiply and subtract. *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to nb - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      (* d >= -limb_base, so its low bits are the borrowed digit. *)
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      u.(i + j) <- d land limb_mask;
      borrow := -(d asr limb_bits)
    done;
    let d = u.(j + nb) - !carry - !borrow in
    u.(j + nb) <- d land limb_mask;
    if d >= 0 then q.(j) <- !qhat
    else begin
      (* D6: the estimate was one too high; add the divisor back. *)
      q.(j) <- !qhat - 1;
      let c = ref 0 in
      for i = 0 to nb - 1 do
        let s = u.(i + j) + v.(i) + !c in
        u.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      u.(j + nb) <- (u.(j + nb) + !c) land limb_mask
    end
  done

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let na = Array.length a and nb = Array.length b in
    if nb = 1 then begin
      (* Short division by a single limb: the discrete-log searches reduce
         modulo one-limb toy primes millions of times. *)
      let d = b.(0) in
      let q = Array.make na 0 in
      let r = ref 0 in
      for i = na - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (normalize q, normalize [| !r |])
    end
    else begin
      let shift = limb_bits - width b.(nb - 1) in
      let v = Array.make nb 0 in
      shl_into b v nb shift;
      let u = Array.make (na + 1) 0 in
      Array.blit a 0 u 0 na;
      shl_into u u (na + 1) shift;
      let q = Array.make (na - nb + 1) 0 in
      div_in_place u ~m:(na - nb) v ~nb q;
      let r = Array.make nb 0 in
      shr_into u r nb shift;
      (normalize q, normalize r)
    end
  end

let rem a b = snd (divmod a b)

let mod_mul a b ~modulus = rem (mul a b) modulus

(* Fixed-width reduction modulo one n-limb modulus: operands are n-limb
   arrays (leading zero limbs allowed) below the modulus, and the
   normalized modulus and all scratch space are built once, so a
   multiply-and-reduce allocates nothing. Such a product is below
   modulus * B^n (B the limb base): shifted by the normalization, it still
   fits in 2n limbs and its top n limbs are below the shifted modulus, so
   Algorithm D needs no extra limb and yields n quotient digits. *)
type reducer = {
  n : int;
  shift : int;  (* Algorithm D's normalization shift *)
  v : int array;  (* the modulus, shifted left by [shift] *)
  prod : int array;  (* 2n limbs: the product, then the dividend *)
  quot : int array;  (* n limbs: the discarded quotient *)
}

let reducer (modulus : t) =
  let n = Array.length modulus in
  let shift = limb_bits - width modulus.(n - 1) in
  let v = Array.make n 0 in
  shl_into modulus v n shift;
  { n; shift; v; prod = Array.make (2 * n) 0; quot = Array.make n 0 }

(* [out] <- [a * b mod modulus]; [out] may be [a] or [b]. *)
let mulmod_into k a b out =
  let n = k.n and u = k.prod in
  Array.fill u 0 (2 * n) 0;
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 do
        let x = u.(i + j) + (ai * b.(j)) + !carry in
        u.(i + j) <- x land limb_mask;
        carry := x lsr limb_bits
      done;
      u.(i + n) <- !carry
    end
  done;
  shl_into u u (2 * n) k.shift;
  div_in_place u ~m:(n - 1) k.v ~nb:n k.quot;
  shr_into u out n k.shift

(* Sliding-window exponentiation, 4-bit windows: precompute the eight odd
   powers b^1, b^3, ..., b^15 and consume the exponent MSB-first, squaring
   per bit and multiplying once per window — about 1.2 multiplies per
   exponent bit instead of the 1.5 of square-and-multiply. Every step
   reduces in place through one {!reducer}. *)
let mod_pow ~base ~exp ~modulus =
  if equal modulus one then zero
  else begin
    let n = num_bits exp in
    if n = 0 then one
    else begin
      let b = rem base modulus in
      let k = reducer modulus in
      let b2 = Array.make k.n 0 and odd_pows = Array.make_matrix 8 k.n 0 in
      Array.blit b 0 odd_pows.(0) 0 (Array.length b);
      mulmod_into k odd_pows.(0) odd_pows.(0) b2;
      for i = 1 to 7 do
        mulmod_into k odd_pows.(i - 1) b2 odd_pows.(i)
      done;
      let result = Array.make k.n 0 in
      result.(0) <- 1;
      let i = ref (n - 1) in
      while !i >= 0 do
        if not (bit exp !i) then begin
          mulmod_into k result result result;
          decr i
        end
        else begin
          (* Window [l, i]: at most 4 bits, ending on a set bit so the
             window value is odd. *)
          let l = ref (max 0 (!i - 3)) in
          while not (bit exp !l) do incr l done;
          let v = ref 0 in
          for j = !i downto !l do
            v := (!v lsl 1) lor (if bit exp j then 1 else 0)
          done;
          for _ = !l to !i do
            mulmod_into k result result result
          done;
          (* Odd power first: a small base leaves its high limbs zero,
             and the row loop skips zero limbs of its first operand. *)
          mulmod_into k odd_pows.(!v lsr 1) result result;
          i := !l - 1
        end
      done;
      normalize result
    end
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let of_hex s =
  let v = ref zero in
  String.iter
    (fun c ->
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' | ' ' -> -1
        | _ -> invalid_arg "Bignum.of_hex"
      in
      if d >= 0 then v := add (shift_left !v 4) (of_int d))
    s;
  !v

(* The [w <= limb_bits] bits of [a] from bit [pos] up; [pos] must lie
   below the top limb's end. *)
let bits_at (a : t) pos w =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let hi =
    if off > limb_bits - w && limb + 1 < Array.length a then a.(limb + 1) lsl (limb_bits - off)
    else 0
  in
  ((a.(limb) lsr off) lor hi) land ((1 lsl w) - 1)

let to_hex (a : t) =
  if is_zero a then "0"
  else begin
    let nibbles = (num_bits a + 3) / 4 in
    String.init nibbles (fun i -> "0123456789abcdef".[bits_at a ((nibbles - 1 - i) * 4) 4])
  end

(* Bytes map straight onto limbs: byte [i] from the end holds bits
   [8i .. 8i+7], which straddle at most two limbs. *)
let of_bytes_be b =
  let len = Bytes.length b in
  let out = Array.make (((len * 8) + limb_bits - 1) / limb_bits) 0 in
  for i = 0 to len - 1 do
    let byte = Char.code (Bytes.get b (len - 1 - i)) in
    let limb = i * 8 / limb_bits and off = i * 8 mod limb_bits in
    out.(limb) <- out.(limb) lor ((byte lsl off) land limb_mask);
    if off > limb_bits - 8 then out.(limb + 1) <- out.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize out

let to_bytes_be ?size (a : t) =
  let needed = (num_bits a + 7) / 8 in
  let size = match size with None -> max needed 1 | Some s -> s in
  if needed > size then invalid_arg "Bignum.to_bytes_be: value too large";
  let out = Bytes.make size '\000' in
  for i = 0 to needed - 1 do
    Bytes.set out (size - 1 - i) (Char.chr (bits_at a (i * 8) 8))
  done;
  out

let random rng ~bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = Util.Rng.bytes rng nbytes in
    (* Mask excess high bits. *)
    let excess = (nbytes * 8) - bits in
    if excess > 0 then
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    of_bytes_be b
  end

let rec random_below rng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let candidate = random rng ~bits:(num_bits bound) in
  if compare candidate bound < 0 then candidate else random_below rng bound

let is_probable_prime ?(rounds = 20) rng n =
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true (* 2 and 3 *)
  else if not (bit n 0) then false
  else begin
    (* n - 1 = d * 2^s with d odd *)
    let n_minus_1 = sub n one in
    let s = ref 0 in
    let d = ref n_minus_1 in
    while not (bit !d 0) do
      d := shift_right !d 1;
      incr s
    done;
    let witness a =
      let x = ref (mod_pow ~base:a ~exp:!d ~modulus:n) in
      if equal !x one || equal !x n_minus_1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to !s - 1 do
             x := mod_mul !x !x ~modulus:n;
             if equal !x n_minus_1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec trial k =
      if k = 0 then true
      else
        let a = add two (random_below rng (sub n (of_int 3))) in
        if witness a then false else trial (k - 1)
    in
    trial rounds
  end

let pp ppf a = Format.fprintf ppf "0x%s" (to_hex a)
