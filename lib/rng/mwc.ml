type t = { mutable z : int; mutable w : int }

let mask16 = 0xFFFF
let mask32 = 0xFFFFFFFF

(* 64-bit finalizer (splitmix64-style) used to turn arbitrary integer seeds
   into well-mixed lag words.  Works on the 63-bit OCaml int; the loss of
   the top bit is irrelevant for seeding purposes. *)
let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3F58476D1CE4E5B9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14D049BB133111EB in
  h lxor (h lsr 31)

(* A multiply-with-carry stream degenerates if its lag word is 0 (it stays
   0 forever) so we nudge zero words to a fixed non-zero constant. *)
let nonzero32 x = if x land mask32 = 0 then 0x9E3779B9 else x land mask32

let create ~seed =
  let a = mix seed in
  let b = mix (a + 0x632BE59BD9B4E019) in
  { z = nonzero32 a; w = nonzero32 b }

let copy t = { z = t.z; w = t.w }

let assign t ~from =
  t.z <- from.z;
  t.w <- from.w

let reseed t ~seed =
  let fresh = create ~seed in
  assign t ~from:fresh

let next_u32 t =
  t.z <- (36969 * (t.z land mask16)) + (t.z lsr 16);
  t.w <- (18000 * (t.w land mask16)) + (t.w lsr 16);
  ((t.z lsl 16) + t.w) land mask32

let fill_u32_le t buf ~pos ~words =
  let room = Bytes.length buf - pos in
  if pos < 0 || room < 0 || words < 0 || words > room / 4 then
    invalid_arg "Mwc.fill_u32_le: range outside the buffer";
  (* [next_u32] unrolled with the lag words in locals: one load and one
     store of the state per call, not per word.  [Int32.of_int] keeps the
     low 32 bits, which is the [land mask32] of [next_u32]. *)
  let z = ref t.z and w = ref t.w in
  for i = 0 to words - 1 do
    z := (36969 * (!z land mask16)) + (!z lsr 16);
    w := (18000 * (!w land mask16)) + (!w lsr 16);
    Bytes.set_int32_le buf (pos + (4 * i)) (Int32.of_int ((!z lsl 16) + !w))
  done;
  t.z <- !z;
  t.w <- !w

let below t n =
  if n <= 0 then invalid_arg "Mwc.below: bound must be positive";
  if n > mask32 + 1 then invalid_arg "Mwc.below: bound exceeds 2^32";
  (* Rejection sampling: draw from the largest multiple of [n] that fits in
     32 bits, then reduce.  Expected < 2 draws. *)
  let limit = (mask32 + 1) / n * n in
  let rec draw () =
    let x = next_u32 t in
    if x < limit then x mod n else draw ()
  in
  draw ()

let bits t b =
  if b < 0 || b > 30 then invalid_arg "Mwc.bits: want 0 <= bits <= 30";
  if b = 0 then 0 else next_u32 t lsr (32 - b)

let bool t = next_u32 t land 1 = 1

let float01 t = float_of_int (next_u32 t) /. 4294967296.

let split t =
  let a = mix ((next_u32 t lsl 32) lor next_u32 t) in
  let b = mix (a + 0x632BE59BD9B4E019) in
  { z = nonzero32 a; w = nonzero32 b }

let state t = (t.z, t.w)
