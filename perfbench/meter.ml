(* Measurement primitives: a nanosecond clock, host-speed calibration, a
   latency histogram, an in-memory span buffer and a JSON writer.
   Nothing here touches the libraries under test. *)

(* bechamel's CLOCK_MONOTONIC stub: nanosecond resolution, unboxed, no
   allocation.  [Unix.gettimeofday] steps in whole microseconds, which
   would quantize a ~3 us request into ~33% jumps. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* Host speed.  Shared hosts change speed by up to 2x over seconds, which
   no amount of repetition averages away.  Each timed unit of work is
   therefore followed by a fixed ~2 ms kernel that does what the
   simulator does — random 8-byte loads and stores through a hashtable
   of 4 KiB pages — and the unit's wall time is scaled by [nominal_ns]
   over the kernel's recent time.  On a host that runs the kernel in
   [nominal_ns], calibrated time is wall time.  The kernel shares no code
   with the libraries under test, so a change to them cannot move it. *)
module Speed = struct
  let nominal_ns = 2_500_000.
  let pages = Array.init 64 (fun _ -> Bytes.make 4096 'a')
  let table = Hashtbl.create 64
  let () = Array.iteri (Hashtbl.replace table) pages

  let kernel () =
    let t0 = now () in
    let acc = ref 0 in
    for i = 1 to 25_000 do
      let a = i * 2654435761 land ((64 * 4096) - 8) in
      let page = Hashtbl.find table (a lsr 12) in
      let v = Int64.to_int (Bytes.get_int64_le page (a land 4088)) in
      acc := ((!acc * 31) + v) land 0xFFFFFF;
      let b = !acc * 8 land ((64 * 4096) - 8) in
      let page = Hashtbl.find table (b lsr 12) in
      Bytes.set_int64_le page (b land 4088) (Int64.of_int (!acc + i))
    done;
    float_of_int (now () - t0)

  (* The scale is the median of the last [window] readings: one reading
     is a few milliseconds and is itself hit by the host's hiccups, while
     the drift being cancelled lasts seconds. *)
  let window = 7
  let readings = ref []
  let start () = readings := [ kernel () ]

  (* Call once after each timed unit: the factor that turns its wall
     time into calibrated time. *)
  let factor () =
    readings := kernel () :: !readings;
    let recent = List.filteri (fun i _ -> i < window) !readings in
    let a = Array.of_list recent in
    Array.sort compare a;
    nominal_ns /. a.(Array.length a / 2)
end

(* Log-linear histogram: exact below 256 ns, then 128 sub-buckets per
   power of two, so a reported quantile (the bucket midpoint) is within
   0.4% of the true sample.  Fixed size, so keeping every sample of a
   multi-million-request run costs no OCaml heap growth. *)
module Hist = struct
  let sub_bits = 7
  let sub = 1 lsl sub_bits

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make (64 * sub) 0; n = 0 }

  let rec msb v n = if v <= 1 then n else msb (v lsr 1) (n + 1)

  let index v =
    if v < 2 * sub then max v 0
    else
      let shift = msb v 0 - sub_bits in
      (shift * sub) + (v lsr shift)

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.n <- 0

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let midpoint i =
    if i < 2 * sub then float_of_int i
    else
      let shift = (i / sub) - 1 in
      let mant = i - (shift * sub) in
      float_of_int (mant lsl shift) +. (float_of_int ((1 lsl shift) - 1) /. 2.)

  (* Nearest-rank quantile. *)
  let quantile t p =
    if t.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
      let i = ref 0 and seen = ref t.counts.(0) in
      while !seen < rank do
        incr i;
        seen := !seen + t.counts.(!i)
      done;
      midpoint !i
    end
end

(* Spans of the traced run, kept in memory and written out when the run
   ends: name, start, end, parent span and the id shared by every span
   of one unit of work (a request, a replay, a replicated run).  The
   buffer is bounded; spans past its capacity are counted, not kept —
   the per-layer totals are accumulated separately and cover them. *)
module Spans = struct
  let capacity = 1 lsl 16

  type t = {
    name : string array;
    id : int array;
    parent : int array;
    start : int array;
    stop : int array;
    mutable len : int;
    mutable dropped : int;
  }

  let create () =
    {
      name = Array.make capacity "";
      id = Array.make capacity 0;
      parent = Array.make capacity (-1);
      start = Array.make capacity 0;
      stop = Array.make capacity 0;
      len = 0;
      dropped = 0;
    }

  (* Returns the span's index, or -1 when the buffer is full. *)
  let open_ t ~name ~id ~parent ~start =
    if t.len >= capacity then begin
      t.dropped <- t.dropped + 1;
      -1
    end
    else begin
      let i = t.len in
      t.name.(i) <- name;
      t.id.(i) <- id;
      t.parent.(i) <- parent;
      t.start.(i) <- start;
      t.stop.(i) <- start;
      t.len <- i + 1;
      i
    end

  let close t i ~stop = if i >= 0 then t.stop.(i) <- stop

  let add t ~name ~id ~parent ~start ~stop =
    close t (open_ t ~name ~id ~parent ~start) ~stop

  (* One JSON object per line. *)
  let write t path =
    let oc = open_out path in
    for i = 0 to t.len - 1 do
      Printf.fprintf oc
        "{\"span\":%d,\"name\":%S,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        i t.name.(i) t.id.(i) t.parent.(i) t.start.(i) t.stop.(i)
    done;
    if t.dropped > 0 then Printf.fprintf oc "{\"dropped\":%d}\n" t.dropped;
    close_out oc
end

(* Result line.  Values print with all their digits ("%.17g"). *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"
