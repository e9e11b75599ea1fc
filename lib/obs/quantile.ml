(* Two-level bucketing.  A sample's bucket is its value itself while it
   fits in [2 * 2^fine_bits] (exact), and otherwise is addressed by
   (exponent, top [fine_bits] mantissa bits): with e the index of the
   most significant set bit and shift = e - fine_bits,

     index = (e - fine_bits + 1) * 2^fine_bits
             + ((v lsr shift) land (2^fine_bits - 1))

   which is continuous with the exact range and monotone in v.  Every
   bucket at shift s spans 2^s values starting at a multiple >= 2^fine_bits
   of 2^s, so the span is at most lo / 2^fine_bits — the relative error
   bound quantile extraction inherits. *)

let fine_bits = 5
let fine = 1 lsl fine_bits (* 32 *)
let exact_limit = 2 * fine (* values below this are their own bucket *)

(* max_int has 62 significant bits: e = 61, block = e - fine_bits + 1 = 57,
   so the last block is 57 and the count is 58 blocks of [fine] buckets. *)
let bucket_count = 58 * fine

(* Index of the most significant set bit of [v], searching up from [e]. *)
let rec msb_from e v = if v lsr (e + 1) = 0 then e else msb_from (e + 1) v

let bucket_of v =
  if v < 0 then invalid_arg "Quantile.bucket_of: negative sample";
  if v < exact_limit then v
  else
    (* v >= 2^(fine_bits+1), so its top bit is at fine_bits + 1 or above *)
    let e = msb_from (fine_bits + 1) v in
    let shift = e - fine_bits in
    ((e - fine_bits + 1) * fine) + ((v lsr shift) land (fine - 1))

let bucket_bounds i =
  if i < 0 || i >= bucket_count then invalid_arg "Quantile.bucket_bounds";
  if i < exact_limit then (i, i)
  else
    let block = i / fine and m = i mod fine in
    let shift = block - 1 in
    let lo = (fine + m) lsl shift in
    (lo, lo + (1 lsl shift) - 1)

(* --- sharded cells --- *)

type cell = { counts : int array; mutable c_sum : int }

let cells = Sharded.kind (fun () -> { counts = Array.make bucket_count 0; c_sum = 0 })

type t = cell Sharded.t

let create () = Sharded.create cells

let record_cell cell v =
  let b = bucket_of v in
  cell.counts.(b) <- cell.counts.(b) + 1;
  cell.c_sum <- cell.c_sum + v

let record q v = if Control.enabled () then record_cell (Sharded.cell q) v

type local = cell Sharded.local

let local = Sharded.local

let record_local l v = if Control.enabled () then record_cell (Sharded.resolve l) v

(* --- snapshots --- *)

type snapshot = { s_counts : int array; s_sum : int; s_total : int }

let empty = { s_counts = Array.make bucket_count 0; s_sum = 0; s_total = 0 }

let snapshot q =
  let cells = Sharded.cells q in
  let counts = Array.make bucket_count 0 in
  let sum = ref 0 in
  List.iter
    (fun cell ->
      Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) cell.counts;
      sum := !sum + cell.c_sum)
    cells;
  { s_counts = counts; s_sum = !sum; s_total = Array.fold_left ( + ) 0 counts }

let merge a b =
  {
    s_counts = Array.init bucket_count (fun i -> a.s_counts.(i) + b.s_counts.(i));
    s_sum = a.s_sum + b.s_sum;
    s_total = a.s_total + b.s_total;
  }

let count s = s.s_total
let sum s = s.s_sum

let mean s = if s.s_total = 0 then 0. else float_of_int s.s_sum /. float_of_int s.s_total

let quantile s q =
  if s.s_total = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int s.s_total)) in
      min s.s_total (max 1 r)
    in
    let acc = ref 0 and result = ref 0 in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= rank then begin
             result := snd (bucket_bounds i);
             raise Exit
           end)
         s.s_counts
     with Exit -> ());
    !result
  end

let max_value s =
  let result = ref 0 in
  Array.iteri (fun i n -> if n > 0 then result := snd (bucket_bounds i)) s.s_counts;
  !result

let pp ppf s =
  Format.fprintf ppf
    "n=%d mean=%.1f p50=%d p90=%d p99=%d p99.9=%d max=%d"
    (count s) (mean s) (quantile s 0.5) (quantile s 0.9) (quantile s 0.99)
    (quantile s 0.999) (max_value s)
