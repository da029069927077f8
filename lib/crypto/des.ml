(* Tables are copied from FIPS 46-3; bit positions are 1-based from the most
   significant bit, as in the standard.

   The hot path is table-driven: the per-round S-box and P permutations are
   fused into eight 64-entry SP tables of 32-bit words, the E expansion is a
   shift/mask window over a 34-bit rotation of R, and IP/FP are the classic
   five-step Hoey/Kwan bit-swap networks. The key schedule ORs PC1 and PC2
   out of slice-indexed tables. The original permute-per-round
   implementation, key schedule included, is kept in [Reference] as the
   oracle the fast path is property-tested against. *)

let initial_permutation =
  [| 58; 50; 42; 34; 26; 18; 10; 2;
     60; 52; 44; 36; 28; 20; 12; 4;
     62; 54; 46; 38; 30; 22; 14; 6;
     64; 56; 48; 40; 32; 24; 16; 8;
     57; 49; 41; 33; 25; 17;  9; 1;
     59; 51; 43; 35; 27; 19; 11; 3;
     61; 53; 45; 37; 29; 21; 13; 5;
     63; 55; 47; 39; 31; 23; 15; 7 |]

let final_permutation =
  [| 40; 8; 48; 16; 56; 24; 64; 32;
     39; 7; 47; 15; 55; 23; 63; 31;
     38; 6; 46; 14; 54; 22; 62; 30;
     37; 5; 45; 13; 53; 21; 61; 29;
     36; 4; 44; 12; 52; 20; 60; 28;
     35; 3; 43; 11; 51; 19; 59; 27;
     34; 2; 42; 10; 50; 18; 58; 26;
     33; 1; 41;  9; 49; 17; 57; 25 |]

let expansion =
  [| 32;  1;  2;  3;  4;  5;
      4;  5;  6;  7;  8;  9;
      8;  9; 10; 11; 12; 13;
     12; 13; 14; 15; 16; 17;
     16; 17; 18; 19; 20; 21;
     20; 21; 22; 23; 24; 25;
     24; 25; 26; 27; 28; 29;
     28; 29; 30; 31; 32;  1 |]

let p_permutation =
  [| 16;  7; 20; 21;
     29; 12; 28; 17;
      1; 15; 23; 26;
      5; 18; 31; 10;
      2;  8; 24; 14;
     32; 27;  3;  9;
     19; 13; 30;  6;
     22; 11;  4; 25 |]

let pc1 =
  [| 57; 49; 41; 33; 25; 17;  9;
      1; 58; 50; 42; 34; 26; 18;
     10;  2; 59; 51; 43; 35; 27;
     19; 11;  3; 60; 52; 44; 36;
     63; 55; 47; 39; 31; 23; 15;
      7; 62; 54; 46; 38; 30; 22;
     14;  6; 61; 53; 45; 37; 29;
     21; 13;  5; 28; 20; 12;  4 |]

let pc2 =
  [| 14; 17; 11; 24;  1;  5;
      3; 28; 15;  6; 21; 10;
     23; 19; 12;  4; 26;  8;
     16;  7; 27; 20; 13;  2;
     41; 52; 31; 37; 47; 55;
     30; 40; 51; 45; 33; 48;
     44; 49; 39; 56; 34; 53;
     46; 42; 50; 36; 29; 32 |]

let rotations = [| 1; 1; 2; 2; 2; 2; 2; 2; 1; 2; 2; 2; 2; 2; 2; 1 |]

let sboxes =
  [| (* S1 *)
     [| 14;  4; 13;  1;  2; 15; 11;  8;  3; 10;  6; 12;  5;  9;  0;  7;
         0; 15;  7;  4; 14;  2; 13;  1; 10;  6; 12; 11;  9;  5;  3;  8;
         4;  1; 14;  8; 13;  6;  2; 11; 15; 12;  9;  7;  3; 10;  5;  0;
        15; 12;  8;  2;  4;  9;  1;  7;  5; 11;  3; 14; 10;  0;  6; 13 |];
     (* S2 *)
     [| 15;  1;  8; 14;  6; 11;  3;  4;  9;  7;  2; 13; 12;  0;  5; 10;
         3; 13;  4;  7; 15;  2;  8; 14; 12;  0;  1; 10;  6;  9; 11;  5;
         0; 14;  7; 11; 10;  4; 13;  1;  5;  8; 12;  6;  9;  3;  2; 15;
        13;  8; 10;  1;  3; 15;  4;  2; 11;  6;  7; 12;  0;  5; 14;  9 |];
     (* S3 *)
     [| 10;  0;  9; 14;  6;  3; 15;  5;  1; 13; 12;  7; 11;  4;  2;  8;
        13;  7;  0;  9;  3;  4;  6; 10;  2;  8;  5; 14; 12; 11; 15;  1;
        13;  6;  4;  9;  8; 15;  3;  0; 11;  1;  2; 12;  5; 10; 14;  7;
         1; 10; 13;  0;  6;  9;  8;  7;  4; 15; 14;  3; 11;  5;  2; 12 |];
     (* S4 *)
     [|  7; 13; 14;  3;  0;  6;  9; 10;  1;  2;  8;  5; 11; 12;  4; 15;
        13;  8; 11;  5;  6; 15;  0;  3;  4;  7;  2; 12;  1; 10; 14;  9;
        10;  6;  9;  0; 12; 11;  7; 13; 15;  1;  3; 14;  5;  2;  8;  4;
         3; 15;  0;  6; 10;  1; 13;  8;  9;  4;  5; 11; 12;  7;  2; 14 |];
     (* S5 *)
     [|  2; 12;  4;  1;  7; 10; 11;  6;  8;  5;  3; 15; 13;  0; 14;  9;
        14; 11;  2; 12;  4;  7; 13;  1;  5;  0; 15; 10;  3;  9;  8;  6;
         4;  2;  1; 11; 10; 13;  7;  8; 15;  9; 12;  5;  6;  3;  0; 14;
        11;  8; 12;  7;  1; 14;  2; 13;  6; 15;  0;  9; 10;  4;  5;  3 |];
     (* S6 *)
     [| 12;  1; 10; 15;  9;  2;  6;  8;  0; 13;  3;  4; 14;  7;  5; 11;
        10; 15;  4;  2;  7; 12;  9;  5;  6;  1; 13; 14;  0; 11;  3;  8;
         9; 14; 15;  5;  2;  8; 12;  3;  7;  0;  4; 10;  1; 13; 11;  6;
         4;  3;  2; 12;  9;  5; 15; 10; 11; 14;  1;  7;  6;  0;  8; 13 |];
     (* S7 *)
     [|  4; 11;  2; 14; 15;  0;  8; 13;  3; 12;  9;  7;  5; 10;  6;  1;
        13;  0; 11;  7;  4;  9;  1; 10; 14;  3;  5; 12;  2; 15;  8;  6;
         1;  4; 11; 13; 12;  3;  7; 14; 10; 15;  6;  8;  0;  5;  9;  2;
         6; 11; 13;  8;  1;  4; 10;  7;  9;  5;  0; 15; 14;  2;  3; 12 |];
     (* S8 *)
     [| 13;  2;  8;  4;  6; 15; 11;  1; 10;  9;  3; 14;  5;  0; 12;  7;
         1; 15; 13;  8; 10;  3;  7;  4; 12;  5;  6; 11;  0; 14;  9;  2;
         7; 11;  4;  1;  9; 12; 14;  2;  0;  6; 10; 13; 15;  3;  5;  8;
         2;  1; 14;  7;  4; 10;  8; 13; 15; 12;  9;  0;  3;  5;  6; 11 |] |]

(* [permute table width x]: [x] holds a [width]-bit value right-aligned; the
   result has [Array.length table] bits, where output bit i (1-based from the
   MSB) is input bit [table.(i-1)]. Used to build the schedule tables and by
   [Reference]; neither hot path calls it. *)
let permute table width x =
  let out_width = Array.length table in
  let out = ref 0L in
  for i = 0 to out_width - 1 do
    let bit = Int64.logand (Int64.shift_right_logical x (width - table.(i))) 1L in
    out := Int64.logor (Int64.shift_left !out 1) bit
  done;
  !out

type key = { subkeys : int array; subkeys_rev : int array; raw : bytes }

let block_size = 8

let rotl28 x n =
  let mask = 0xFFFFFFF in
  ((x lsl n) lor (x lsr (28 - n))) land mask

let schedules = ref 0
let schedules_performed () = !schedules
let blocks = ref 0
let blocks_performed () = !blocks

(* --- schedule tables -----------------------------------------------------

   PC1 and PC2 only move bits, so each is the OR of what it does to disjoint
   slices of its input. [pc1_table.((b lsl 8) lor v)] is PC1 of the key whose
   byte [b] is [v] and whose other bytes are zero. [pc2_table.((j lsl 7) lor
   v)] is PC2 of the 56-bit CD whose [j]-th 7-bit chunk from the MSB is [v]
   (chunks 0-3 are C, 4-7 are D). [permute] fills both, so they agree with
   the FIPS tables by construction. Every index is a slice number shifted
   over a masked slice value, so the unsafe gets stay in bounds. *)
let pc1_table =
  Array.init (8 * 256) (fun i ->
      let b = i lsr 8 and v = i land 0xFF in
      Int64.to_int (permute pc1 64 (Int64.shift_left (Int64.of_int v) (56 - (8 * b)))))

let pc2_table =
  Array.init (8 * 128) (fun i ->
      let j = i lsr 7 and v = i land 0x7F in
      Int64.to_int (permute pc2 56 (Int64.of_int (v lsl (49 - (7 * j))))))

(* PC2's share from one 28-bit half; [base] is the table offset of the
   half's first chunk (0 for C, 512 for D). *)
let pc2_half base x =
  Array.unsafe_get pc2_table (base lor ((x lsr 21) land 0x7F))
  lor Array.unsafe_get pc2_table ((base + 128) lor ((x lsr 14) land 0x7F))
  lor Array.unsafe_get pc2_table ((base + 256) lor ((x lsr 7) land 0x7F))
  lor Array.unsafe_get pc2_table ((base + 384) lor (x land 0x7F))

let schedule k =
  if Bytes.length k <> 8 then invalid_arg "Des.schedule: key must be 8 bytes";
  incr schedules;
  let cd = ref 0 in
  for b = 0 to 7 do
    cd := !cd lor Array.unsafe_get pc1_table ((b lsl 8) lor Bytes.get_uint8 k b)
  done;
  let c = ref (!cd lsr 28) and d = ref (!cd land 0xFFFFFFF) in
  let subkeys = Array.make 16 0 and subkeys_rev = Array.make 16 0 in
  for i = 0 to 15 do
    let rot = rotations.(i) in
    c := rotl28 !c rot;
    d := rotl28 !d rot;
    let sk = pc2_half 0 !c lor pc2_half 512 !d in
    subkeys.(i) <- sk;
    subkeys_rev.(15 - i) <- sk
  done;
  { subkeys; subkeys_rev; raw = Bytes.copy k }

let key_bytes k = Bytes.copy k.raw

(* --- fused SP tables ---------------------------------------------------

   [sp.(box).(v)] is P(S_box(v)) placed in its 32-bit position: the 6-bit
   S-box input [v] (row from the outer bits, column from the middle four, as
   in the standard) is looked up, the 4-bit output is placed at nibble
   [box] of the 32-bit word, and the P permutation is applied — so the round
   function is eight table lookups and a 7-way or, with no bit-by-bit
   permuting left. *)
let sp =
  Array.init 8 (fun box ->
      Array.init 64 (fun v ->
          let row = ((v lsr 4) land 2) lor (v land 1) in
          let col = (v lsr 1) land 0xF in
          let s = sboxes.(box).((row * 16) + col) in
          let placed = s lsl (4 * (7 - box)) in
          let out = ref 0 in
          for j = 0 to 31 do
            out := (!out lsl 1) lor ((placed lsr (32 - p_permutation.(j))) land 1)
          done;
          !out))

let sp0 = sp.(0) and sp1 = sp.(1) and sp2 = sp.(2) and sp3 = sp.(3)
let sp4 = sp.(4) and sp5 = sp.(5) and sp6 = sp.(6) and sp7 = sp.(7)

(* The E expansion reads eight overlapping 6-bit windows of the cyclic
   sequence bit32, bit1..bit32, bit1. Materialize that sequence once as a
   34-bit word [w]; window [g] is then [(w lsr (28 - 4g)) land 63]. Indices
   into the SP tables are masked with [land 63], so the unsafe gets stay in
   bounds by construction. *)
let feistel r sk =
  let w = ((r land 1) lsl 33) lor (r lsl 1) lor (r lsr 31) in
  Array.unsafe_get sp0 (((w lsr 28) lxor (sk lsr 42)) land 63)
  lor Array.unsafe_get sp1 (((w lsr 24) lxor (sk lsr 36)) land 63)
  lor Array.unsafe_get sp2 (((w lsr 20) lxor (sk lsr 30)) land 63)
  lor Array.unsafe_get sp3 (((w lsr 16) lxor (sk lsr 24)) land 63)
  lor Array.unsafe_get sp4 (((w lsr 12) lxor (sk lsr 18)) land 63)
  lor Array.unsafe_get sp5 (((w lsr 8) lxor (sk lsr 12)) land 63)
  lor Array.unsafe_get sp6 (((w lsr 4) lxor (sk lsr 6)) land 63)
  lor Array.unsafe_get sp7 ((w lxor sk) land 63)

type halves = { mutable hi : int; mutable lo : int }

(* One full DES block on 32-bit halves: the five-swap IP network, sixteen
   unrolled Feistel rounds (only the R chain is materialized; L_i = R_{i-1}),
   the R16/L16 pre-output swap, and the inverse swap network for FP. All
   values are immediate ints; nothing is allocated. *)
let crypt_halves sk st =
  incr blocks;
  let l = st.hi and r = st.lo in
  (* IP *)
  let t = ((l lsr 4) lxor r) land 0x0f0f0f0f in
  let r = r lxor t and l = l lxor (t lsl 4) in
  let t = ((l lsr 16) lxor r) land 0x0000ffff in
  let r = r lxor t and l = l lxor (t lsl 16) in
  let t = ((r lsr 2) lxor l) land 0x33333333 in
  let l = l lxor t and r = r lxor (t lsl 2) in
  let t = ((r lsr 8) lxor l) land 0x00ff00ff in
  let l = l lxor t and r = r lxor (t lsl 8) in
  let t = ((l lsr 1) lxor r) land 0x55555555 in
  let r = r lxor t and l = l lxor (t lsl 1) in
  (* 16 rounds *)
  let r1 = l lxor feistel r (Array.unsafe_get sk 0) in
  let r2 = r lxor feistel r1 (Array.unsafe_get sk 1) in
  let r3 = r1 lxor feistel r2 (Array.unsafe_get sk 2) in
  let r4 = r2 lxor feistel r3 (Array.unsafe_get sk 3) in
  let r5 = r3 lxor feistel r4 (Array.unsafe_get sk 4) in
  let r6 = r4 lxor feistel r5 (Array.unsafe_get sk 5) in
  let r7 = r5 lxor feistel r6 (Array.unsafe_get sk 6) in
  let r8 = r6 lxor feistel r7 (Array.unsafe_get sk 7) in
  let r9 = r7 lxor feistel r8 (Array.unsafe_get sk 8) in
  let r10 = r8 lxor feistel r9 (Array.unsafe_get sk 9) in
  let r11 = r9 lxor feistel r10 (Array.unsafe_get sk 10) in
  let r12 = r10 lxor feistel r11 (Array.unsafe_get sk 11) in
  let r13 = r11 lxor feistel r12 (Array.unsafe_get sk 12) in
  let r14 = r12 lxor feistel r13 (Array.unsafe_get sk 13) in
  let r15 = r13 lxor feistel r14 (Array.unsafe_get sk 14) in
  let r16 = r14 lxor feistel r15 (Array.unsafe_get sk 15) in
  (* pre-output block is R16 L16 *)
  let l = r16 and r = r15 in
  (* FP = IP^-1: the same swaps, reversed *)
  let t = ((l lsr 1) lxor r) land 0x55555555 in
  let r = r lxor t and l = l lxor (t lsl 1) in
  let t = ((r lsr 8) lxor l) land 0x00ff00ff in
  let l = l lxor t and r = r lxor (t lsl 8) in
  let t = ((r lsr 2) lxor l) land 0x33333333 in
  let l = l lxor t and r = r lxor (t lsl 2) in
  let t = ((l lsr 16) lxor r) land 0x0000ffff in
  let r = r lxor t and l = l lxor (t lsl 16) in
  let t = ((l lsr 4) lxor r) land 0x0f0f0f0f in
  let r = r lxor t and l = l lxor (t lsl 4) in
  st.hi <- l;
  st.lo <- r

let encrypt_halves key st = crypt_halves key.subkeys st
let decrypt_halves key st = crypt_halves key.subkeys_rev st

let crypt_i64 sk x =
  let st =
    { hi = Int64.to_int (Int64.shift_right_logical x 32);
      lo = Int64.to_int (Int64.logand x 0xFFFFFFFFL) }
  in
  crypt_halves sk st;
  Int64.logor (Int64.shift_left (Int64.of_int st.hi) 32) (Int64.of_int st.lo)

let encrypt_block_i64 key x = crypt_i64 key.subkeys x
let decrypt_block_i64 key x = crypt_i64 key.subkeys_rev x

let crypt_block sk block =
  if Bytes.length block <> 8 then invalid_arg "Des: block must be 8 bytes";
  let st =
    { hi = (Bytes.get_uint16_be block 0 lsl 16) lor Bytes.get_uint16_be block 2;
      lo = (Bytes.get_uint16_be block 4 lsl 16) lor Bytes.get_uint16_be block 6 }
  in
  crypt_halves sk st;
  let out = Bytes.create 8 in
  Bytes.set_uint16_be out 0 (st.hi lsr 16);
  Bytes.set_uint16_be out 2 (st.hi land 0xffff);
  Bytes.set_uint16_be out 4 (st.lo lsr 16);
  Bytes.set_uint16_be out 6 (st.lo land 0xffff);
  out

let encrypt_block key block = crypt_block key.subkeys block
let decrypt_block key block = crypt_block key.subkeys_rev block

module Reference = struct
  (* The original bit-by-bit implementation: a generic [permute] per
     component per round. Kept verbatim as the semantic anchor for the
     table-driven path above. *)

  let schedule k =
    if Bytes.length k <> 8 then
      invalid_arg "Des.Reference.schedule: key must be 8 bytes";
    let k64 = Bytes.get_int64_be k 0 in
    let cd = Int64.to_int (permute pc1 64 k64) in
    let c = ref ((cd lsr 28) land 0xFFFFFFF) in
    let d = ref (cd land 0xFFFFFFF) in
    let subkeys =
      Array.map
        (fun rot ->
          c := rotl28 !c rot;
          d := rotl28 !d rot;
          let merged = Int64.of_int ((!c lsl 28) lor !d) in
          Int64.to_int (permute pc2 56 merged))
        rotations
    in
    let subkeys_rev = Array.init 16 (fun i -> subkeys.(15 - i)) in
    { subkeys; subkeys_rev; raw = Bytes.copy k }

  let f_function r subkey =
    let e = Int64.logxor (permute expansion 32 r) subkey in
    let out = ref 0L in
    for box = 0 to 7 do
      let six =
        Int64.to_int (Int64.logand (Int64.shift_right_logical e ((7 - box) * 6)) 0x3FL)
      in
      let row = ((six lsr 4) land 2) lor (six land 1) in
      let col = (six lsr 1) land 0xF in
      let s = sboxes.(box).((row * 16) + col) in
      out := Int64.logor (Int64.shift_left !out 4) (Int64.of_int s)
    done;
    permute p_permutation 32 !out

  let crypt_block subkey_order key block =
    if Bytes.length block <> 8 then invalid_arg "Des: block must be 8 bytes";
    let b = Bytes.get_int64_be block 0 in
    let ip = permute initial_permutation 64 b in
    let l = ref (Int64.shift_right_logical ip 32) in
    let r = ref (Int64.logand ip 0xFFFFFFFFL) in
    for i = 0 to 15 do
      let sk = Int64.of_int key.subkeys.(subkey_order i) in
      let next_r = Int64.logand (Int64.logxor !l (f_function !r sk)) 0xFFFFFFFFL in
      l := !r;
      r := next_r
    done;
    (* Pre-output block is R16 L16 (the halves are swapped). *)
    let preout = Int64.logor (Int64.shift_left !r 32) !l in
    let out = Bytes.create 8 in
    Bytes.set_int64_be out 0 (permute final_permutation 64 preout);
    out

  let encrypt_block key block = crypt_block (fun i -> i) key block
  let decrypt_block key block = crypt_block (fun i -> 15 - i) key block
end

(* [parity_table.[c]] is byte [c] with its low bit set so that the byte
   has odd parity, the DES key convention. *)
let parity_table =
  String.init 256 (fun c ->
      let ones = ref 0 in
      for bit = 1 to 7 do
        if (c lsr bit) land 1 = 1 then incr ones
      done;
      Char.chr ((c land 0xFE) lor (if !ones mod 2 = 0 then 1 else 0)))

let fix_parity k = Bytes.map (fun c -> String.unsafe_get parity_table (Char.code c)) k

(* The 56 key bits of an 8-byte key: the top seven bits of each byte, MSB
   first. Parity bits play no part, so two keys that differ only in parity
   map to the same int. *)
let key_bits k =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 7) lor (Bytes.get_uint8 k i lsr 1)
  done;
  !v

let weak_bits =
  Array.of_list
    (List.map
       (fun h -> key_bits (Util.Bytesutil.of_hex h))
       [ "0101010101010101"; "fefefefefefefefe"; "e0e0e0e0f1f1f1f1";
         "1f1f1f1f0e0e0e0e";
         (* semi-weak pairs *)
         "011f011f010e010e"; "1f011f010e010e01"; "01e001e001f101f1";
         "e001e001f101f101"; "01fe01fe01fe01fe"; "fe01fe01fe01fe01";
         "1fe01fe00ef10ef1"; "e01fe01ff10ef10e"; "1ffe1ffe0efe0efe";
         "fe1ffe1ffe0efe0e"; "e0fee0fef1fef1fe"; "fee0fee0fef1fef1" ])

let rec weak_from bits i =
  i < Array.length weak_bits && (weak_bits.(i) = bits || weak_from bits (i + 1))

(* Only 8-byte keys can equal a weak key. *)
let is_weak k = Bytes.length k = 8 && weak_from (key_bits k) 0

let rec random_key rng =
  let k = fix_parity (Util.Rng.bytes rng 8) in
  if is_weak k then random_key rng else k

(* --- schedule cache ------------------------------------------------------

   [schedule (fix_parity k)] costs eight PC1 lookups and sixteen rounds of
   eight PC2 lookups, plus the 41 words of the schedule itself — about as
   much as enciphering a block. Long-lived keys (principal keys, session keys,
   the TGS key) are scheduled over and over at every sealing site, so a
   small memo table keyed on the raw key bytes removes the work entirely.
   The cache is semantically invisible: a hit returns a schedule equal to
   what [schedule (fix_parity k)] would rebuild, and the toggle exists so
   the equivalence tests and bench ablations can prove it. *)

let cache_enabled = ref true
let cache : (string, key) Hashtbl.t = Hashtbl.create 1024

(* Beyond this the workload is churning through one-shot keys and memoizing
   stops paying; dropping the table keeps memory bounded at ~
   [max_cache_entries * (2 schedules + raw)] and correctness is unaffected.
   An entry holds ~48 words, so one-shot session keys filling a larger table
   would keep megabytes alive for the major GC to walk, while a miss costs
   only one table-driven schedule. *)
let max_cache_entries = 4_096

let set_schedule_cache on =
  cache_enabled := on;
  if not on then Hashtbl.reset cache

let schedule_cache_enabled () = !cache_enabled

let schedule_cached k =
  if not !cache_enabled then schedule (fix_parity k)
  else
    let id = Bytes.to_string k in
    match Hashtbl.find_opt cache id with
    | Some sk -> sk
    | None ->
        if Hashtbl.length cache >= max_cache_entries then Hashtbl.reset cache;
        let sk = schedule (fix_parity k) in
        Hashtbl.add cache id sk;
        sk
