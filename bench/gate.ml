(* The gate harness: every claim the reproduction guards, measured in one
   run and checked against one committed baseline.

     dune exec bench/main.exe -- gate [quick] [--trace PATH]

   Each leg emits records of the diehard-bench/2 schema: name, layer,
   unit, value, spread over N repeats, kind and gate.  BENCH_gate.json
   holds a "quick" and a "full" record set (with the recording machine's
   core count); a run compares against its own mode's set and, when
   every gate holds, rewrites that set.  Gates are count-first:

   - kind "count": exact work or behaviour counts, identical on every
     machine.  A count that fingerprints behaviour (a checksum, a
     survival tally) must equal the baseline; one that measures work
     (minor words, pre-images, trace records, steps, touched pages)
     must not exceed it.
   - kind "ratio": deterministic ratios held to a fixed bar (the
     meshing frontier, the audit's masking tolerances).
   - kind "wall": wall-clock figures, gated only on machines with at
     least two cores (the jobs=2 scaling gate and the serve SLO).

   Exit codes: 0 all gates hold, 3 a gate failed, 2 the baseline is
   missing or unreadable.  --trace writes the obs-on leg's Chrome trace. *)

module Json = Dh_obs.Json
module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Supervisor = Diehard.Supervisor
module Server = Dh_workload.Server

let schema = "diehard-bench/2"
let baseline_path = "BENCH_gate.json"

type kind = Count | Ratio | Wall
type op = Eq | Le | Lt | Ge | Gt

(* What a record's value is compared against: its own value in the
   committed baseline, a constant bar, or another record of this run. *)
type rhs = Baseline | Const of float | Record of string

type record = {
  name : string;
  layer : string;
  unit_ : string;
  value : float;
  spread : float;  (* interquartile range over [repeats] *)
  repeats : int;
  kind : kind;
  gate : op * rhs;
}

(* Values are stored and compared at 12 significant digits, so a count
   read back from the baseline equals the one that was written. *)
let num v = Printf.sprintf "%.12g" v
let canon v = float_of_string (num v)

let record ?(spread = 0.) ?(repeats = 1) ~layer ~unit_ ~kind name value gate =
  { name; layer; unit_; value = canon value; spread = canon spread; repeats; kind; gate }

let count ~layer ~unit_ name value gate =
  record ~layer ~unit_ ~kind:Count name (float_of_int value) gate

let ops = [ (Eq, "=="); (Le, "<="); (Lt, "<"); (Ge, ">="); (Gt, ">") ]
let kinds = [ (Count, "count"); (Ratio, "ratio"); (Wall, "wall") ]

let gate_to_string (op, rhs) =
  List.assoc op ops ^ " "
  ^ match rhs with Baseline -> "baseline" | Const c -> num c | Record n -> n

let holds op a b =
  match op with
  | Eq -> a = b
  | Le -> a <= b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b

(* --- counting work --- *)

(* Words this domain allocates on the minor heap while running [f]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Every record Dh_obs has taken since the last reset: trace events,
   counter increments and histogram samples, and audit flow events. *)
let obs_records () =
  let metrics =
    List.fold_left
      (fun acc (r : Dh_obs.Metrics.row) -> if r.kind = "gauge" then acc else acc + r.value)
      0
      (Dh_obs.Metrics.dump Dh_obs.Metrics.default)
  in
  let audit =
    Array.fold_left
      (fun acc (c : Dh_obs.Audit.class_stat) -> acc + c.allocs + c.frees + c.failed)
      0 (Dh_obs.Audit.snapshot ()).classes
  in
  Dh_obs.Tracing.recorded () + metrics + audit

let reset_obs () =
  Dh_obs.Tracing.reset ();
  Dh_obs.Metrics.reset Dh_obs.Metrics.default;
  Dh_obs.Audit.reset ()

(* A malloc/free churn with a bounded live set: the slot table recycles,
   so the allocator reaches its steady state.  One op = one malloc plus
   the free of the object its slot held. *)
let churn ~ops (a : Allocator.t) =
  let live = Array.make 256 0 in
  for i = 0 to ops - 1 do
    let slot = i land 255 in
    if live.(slot) <> 0 then a.free live.(slot);
    live.(slot) <- Option.value (a.malloc (16 + ((i land 7) * 32))) ~default:0
  done

(* The same churn as a program whose output is a deterministic mix of
   values read back from the heap, so replicas agree and divergence is
   detectable. *)
let churn_program ~ops =
  Program.make ~name:"churn" (fun ctx ->
      let a = ctx.Program.alloc in
      let mem = a.Allocator.mem in
      let live = Array.make 64 0 in
      let h = ref 0x9E3779B9 in
      for i = 0 to ops - 1 do
        let slot = i land 63 in
        if live.(slot) <> 0 then begin
          h := !h lxor Mem.read64 mem live.(slot);
          a.free live.(slot);
          live.(slot) <- 0
        end;
        match a.malloc (16 + ((i land 7) * 24)) with
        | Some p ->
          Mem.write64 mem p ((i * 0x61C88647) lxor !h);
          live.(slot) <- p
        | None -> ()
      done;
      Dh_mem.Process.Out.printf ctx.Program.out "h=%d" !h)

let small_heap = 12 * 64 * 1024

(* --- obs: the enabled cost and the disabled path, as counts --- *)

let obs_leg ~quick ~trace =
  let ops = if quick then 20_000 else 200_000 in
  let per_op x = x /. float_of_int ops in
  let leg enabled =
    Dh_obs.Control.with_enabled enabled (fun () ->
        reset_obs ();
        let a = Factory.diehard () in
        let words = minor_words (fun () -> churn ~ops a) in
        (per_op words, per_op (float_of_int (obs_records ()))))
  in
  let off_words, off_records = leg false in
  let on_words, on_records = leg true in
  (* The rest of the obs-on leg is for the trace: spans from the GC, the
     supervisor and the replica pool, recorded after the heap churn so
     the per-domain rings keep them. *)
  Dh_obs.Control.with_enabled true (fun () ->
      let gc = Dh_alloc.Gc.create (Mem.create ()) in
      churn ~ops:2_000 (Dh_alloc.Gc.allocator gc);
      Dh_alloc.Gc.collect gc;
      ignore
        (Diehard.Replicated.run
           ~config:(Diehard.Config.v ~heap_size:small_heap ~jobs:2 ())
           ~replicas:3 (churn_program ~ops:200));
      ignore
        (Supervisor.run ~config:(Diehard.Config.v ~heap_size:Server.heap_size ())
           (Server.program ~requests:64 ())));
  (* Parked workers would tax every later minor collection. *)
  Dh_parallel.Pool.quiesce ();
  Option.iter
    (fun path ->
      Dh_obs.Tracing.write_chrome_json ~path ();
      Printf.printf "wrote %s (%d events)\n" path (List.length (Dh_obs.Tracing.events ())))
    trace;
  let r = record ~layer:"obs" ~kind:Count in
  [
    r ~unit_:"words/op" "obs.off.minor_words_per_op" off_words (Le, Baseline);
    r ~unit_:"records/op" "obs.off.records_per_op" off_records (Eq, Const 0.);
    r ~unit_:"words/op" "obs.on.minor_words_per_op" on_words (Le, Baseline);
    r ~unit_:"records/op" "obs.on.records_per_op" on_records (Le, Baseline);
  ]

(* --- mem: the write path with and without an armed checkpoint --- *)

(* One 64-bit write per cache line of every page, [reps] times.  Unarmed,
   dirty tracking must cost no pre-image and no more allocation than the
   baseline (2 words a write today: [Mem.find_segment] boxes its result);
   armed, each re-arm pre-images every page once. *)
let writes_leg ~quick =
  let pages = if quick then 64 else 256 and reps = if quick then 60 else 200 in
  let writes = reps * pages * 64 in
  let churn ~armed =
    let mem = Mem.create () in
    let a = Mem.mmap mem (pages * 4096) in
    let words =
      minor_words (fun () ->
          for _ = 1 to reps do
            if armed then Mem.checkpoint mem;
            for w = 0 to (pages * 64) - 1 do
              Mem.write64 mem (a + (w * 64)) w
            done
          done)
    in
    let per_write x = x /. float_of_int writes in
    (per_write words, per_write (float_of_int (Mem.preimaged_pages mem)))
  in
  let plain_words, plain_pre = churn ~armed:false in
  let armed_words, armed_pre = churn ~armed:true in
  let r = record ~layer:"mem" ~kind:Count in
  [
    r ~unit_:"preimages/write" "mem.unarmed.preimages_per_write" plain_pre (Eq, Const 0.);
    r ~unit_:"words/write" "mem.unarmed.minor_words_per_write" plain_words (Le, Baseline);
    r ~unit_:"preimages/write" "mem.armed.preimages_per_write" armed_pre (Le, Baseline);
    r ~unit_:"words/write" "mem.armed.minor_words_per_write" armed_words (Le, Baseline);
  ]

(* --- supervisor: rewind recovery vs from-scratch retry --- *)

(* The same server-under-attack run (same seed pool, so both ladders
   draw identical per-attempt seeds), once with the rewind rung and once
   restarting each failed attempt.  Work is the fuel burned across every
   attempt (one step per request plus one per chain hop); fuel is not
   rewound, so replayed windows count.  Both legs must survive with
   byte-identical output. *)
let recovery_leg ~quick =
  let requests = if quick then 2048 else 8192 in
  let run interval =
    Supervisor.run
      ~policy:
        {
          Supervisor.default_policy with
          max_retries = 8;
          rescue = false;
          diagnose = false;
          fuel = 10_000_000;
          checkpoint_interval = interval;
          max_rewinds = (if interval > 0 then 1_000_000 else 0);
        }
      ~config:(Diehard.Config.v ~heap_size:Server.heap_size ())
      ~seed_pool:(Dh_rng.Seed.create ~master:3)
      (Server.program ~requests ~attack_every:16 ())
  in
  let rewind = run 64 and scratch = run 0 in
  let recovery f =
    List.fold_left
      (fun acc (a : Supervisor.attempt_report) ->
        acc + Option.fold ~none:0 ~some:f a.recovery)
      0 rewind.attempts
  in
  let survived (i : Supervisor.incident) =
    match i.verdict with Supervisor.Survived _ -> true | Gave_up -> false
  in
  let matched = survived rewind && survived scratch && rewind.output = scratch.output in
  let r = count ~layer:"supervisor" in
  [
    r ~unit_:"steps" "recovery.rewind.steps" rewind.total_fuel
      (Lt, Record "recovery.scratch.steps");
    r ~unit_:"steps" "recovery.rewind.steps_vs_baseline" rewind.total_fuel (Le, Baseline);
    r ~unit_:"steps" "recovery.scratch.steps" scratch.total_fuel (Le, Baseline);
    r ~unit_:"pages" "recovery.pages_restored"
      (recovery (fun r -> r.pages_restored))
      (Le, Baseline);
    r ~unit_:"rewinds" "recovery.rewinds" (recovery (fun r -> r.rewinds)) (Eq, Baseline);
    r ~unit_:"bool" "recovery.output_match" (Bool.to_int matched) (Eq, Const 1.);
  ]

(* --- heap: the §4.5 meshing frontier --- *)

let space_leg ~quick =
  let rows = Space.mesh_frontier ~quick () in
  Space.mesh_section rows;
  let best = List.fold_left (fun acc r -> Float.max acc (Space.mesh_ratio r)) 1.0 rows in
  List.concat_map
    (fun (r : Space.mesh_row) ->
      let c ~unit_ what v =
        count ~layer:"heap" ~unit_
          (Printf.sprintf "space.%s.%s" r.mr_profile what)
          v (Le, Baseline)
      in
      [
        c ~unit_:"pages" "touched_off" r.touched_off;
        c ~unit_:"pages" "touched_on" r.touched_on;
        c ~unit_:"meshes" "meshes" r.meshes;
      ])
    rows
  @ [
      record ~layer:"heap" ~unit_:"x" ~kind:Ratio "space.best_reduction" best
        (Ge, Const (if quick then 1.5 else 2.0));
    ]

(* --- analysis: the safety-margin audit --- *)

let audit_leg ~quick =
  let rows, _ = Audit.sweep ~quick () in
  Audit.print_rows rows;
  List.concat_map
    (fun (r : Audit.row) ->
      let name what = Printf.sprintf "audit.m%g.%s" r.m what in
      let dev what (l : Audit.leg) =
        record ~layer:"analysis" ~unit_:"|measured-analytic|" ~kind:Ratio (name what)
          (Float.abs (l.measured -. l.analytic)) (Le, Const l.tol)
      in
      [
        dev "overflow_dev" r.overflow;
        dev "dangling_dev" r.dangling;
        record ~layer:"analysis" ~unit_:"of ideal" ~kind:Ratio (name "entropy")
          r.entropy_ratio (Ge, Const Audit.entropy_floor);
      ])
    rows

(* --- workload: the serve loop under attack --- *)

let serve_leg ~quick =
  let l = Serve.run_leg ~requests:(Serve.leg_requests ~quick) ~seed:1 () in
  Serve.leg_section l;
  let survived, seeds = Serve.sweep ~quick () in
  let r = count ~layer:"serve" in
  [
    r ~unit_:"checksum" "serve.checksum" l.checksum (Eq, Baseline);
    r ~unit_:"requests" "serve.failed" l.failed (Eq, Baseline);
    r ~unit_:"rewinds" "serve.rewinds" l.rewinds (Eq, Baseline);
    r ~unit_:"bool" "serve.survived_randomized" (Bool.to_int l.survived_randomized)
      (Eq, Const 1.);
    r ~unit_:"seeds" "serve.sweep_survived" survived (Eq, Const (float_of_int seeds));
    record ~layer:"serve" ~unit_:"of budget" ~kind:Wall "serve.slo_budget_used"
      l.slo.Dh_obs.Slo.budget_used (Le, Const 1.);
  ]

(* --- pool: jobs=2 scaling, the one wall-clock gate --- *)

let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  (a.(n / 2), a.(3 * n / 4) -. a.(n / 4))

(* Time [run ~size ~jobs] at jobs=1 and jobs=2, interleaved, [repeats]
   times, each leg from a quiesced pool and a compacted heap.  [size]
   first grows until a jobs=1 leg takes 1.3 s, so domain spawns and
   timer noise stay small against the work and the legs stay over a
   second even when the machine speeds up after calibration.  Every
   repeat's jobs=2 result must equal its own jobs=1 result. *)
let scaling ~name ~repeats run =
  let leg ~size ~jobs =
    Dh_parallel.Pool.quiesce ();
    Gc.compact ();
    time (fun () -> run ~size ~jobs)
  in
  let rec calibrate size =
    let t, _ = leg ~size ~jobs:1 in
    if t >= 1.3 then size
    else calibrate (max (size + 1) (int_of_float (float_of_int size *. 1.5 /. t)))
  in
  let size = calibrate 1 in
  let samples =
    List.init repeats (fun _ ->
        let t1, r1 = leg ~size ~jobs:1 in
        let t2, r2 = leg ~size ~jobs:2 in
        (t1, t1 /. t2, r1 = r2))
  in
  Dh_parallel.Pool.quiesce ();
  let speedup, iqr = quartiles (List.map (fun (_, s, _) -> s) samples) in
  let leg_s, leg_iqr = quartiles (List.map (fun (t, _, _) -> t) samples) in
  let r = record ~layer:"pool" ~kind:Wall ~repeats in
  [
    r ~unit_:"x" ~spread:iqr (name ^ ".speedup_j2") speedup (Gt, Const 1.);
    r ~unit_:"s" ~spread:leg_iqr (name ^ ".leg_j1_s") leg_s (Ge, Const 1.);
    count ~layer:"pool" ~unit_:"bool" (name ^ ".fingerprint_match")
      (Bool.to_int (List.for_all (fun (_, _, m) -> m) samples))
      (Eq, Const 1.);
  ]

(* The paper's §5 replicas (8-way, one churn per replica) and a
   fault-injection campaign (64 trials), both fanned out by Dh_parallel;
   [size] scales the churn. *)
let scaling_leg ~quick =
  let repeats = if quick then 5 else 7 in
  scaling ~name:"scaling.replicated" ~repeats (fun ~size ~jobs ->
      Diehard.Replicated.run
        ~config:(Diehard.Config.v ~heap_size:small_heap ~jobs ())
        ~replicas:8
        ~seed_pool:(Dh_rng.Seed.create ~master:0xD1E)
        (churn_program ~ops:(1_000 * size)))
  @ scaling ~name:"scaling.campaign" ~repeats (fun ~size ~jobs ->
        Dh_fault.Campaign.run_exn ~jobs ~trials:64
          ~spec:
            { Dh_fault.Injector.paper_dangling with
              dangling_rate = 0.5;
              dangling_distance = 8;
              seed = 0xFA57;
            }
          ~make_alloc:(fun ~trial ->
            Factory.diehard ~heap_size:small_heap ~seed:(trial + 1) ())
          (churn_program ~ops:(100 * size)))

(* --- the harness --- *)

let record_json r : Json.t =
  Obj
    [
      ("name", String r.name); ("layer", String r.layer); ("unit", String r.unit_);
      ("value", Number r.value); ("spread", Number r.spread);
      ("repeats", Number (float_of_int r.repeats));
      ("kind", String (List.assoc r.kind kinds)); ("gate", String (gate_to_string r.gate));
    ]

let rec json_to_string (j : Json.t) =
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number f -> num f
  | String s -> Printf.sprintf "%S" s
  | List l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) kv)
    ^ "}"

let records_of set = Option.fold ~none:[] ~some:Json.to_list (Json.member "records" set)

(* A record set, one record per line so baseline diffs read per record. *)
let set_to_string set =
  Printf.sprintf "{\"cores\": %s, \"records\": [\n    %s\n  ]}"
    (Option.fold ~none:"0" ~some:json_to_string (Json.member "cores" set))
    (String.concat ",\n    " (List.map json_to_string (records_of set)))

let fail_input fmt =
  Printf.ksprintf (fun s -> prerr_endline ("gate: " ^ s); exit 2) fmt

(* The committed file and this mode's baseline values by name. *)
let read_baseline ~mode =
  let contents =
    try In_channel.with_open_bin baseline_path In_channel.input_all
    with Sys_error e -> fail_input "cannot read baseline: %s" e
  in
  match Json.parse contents with
  | Error e -> fail_input "%s does not parse: %s" baseline_path e
  | Ok json -> (
    if Json.member "schema" json <> Some (String schema) then
      fail_input "%s is not a %s file" baseline_path schema;
    match Json.member mode json with
    | None -> fail_input "%s has no %S record set" baseline_path mode
    | Some set ->
      ( json,
        List.filter_map
          (fun r ->
            match (Json.member "name" r, Json.member "value" r) with
            | Some (String n), Some (Number v) -> Some (n, v)
            | _ -> None)
          (records_of set) ))

(* The records whose gate does not hold, with the reason. *)
let check ~cores ~baseline records =
  List.filter_map
    (fun r ->
      let op, rhs = r.gate in
      let bar =
        match rhs with
        | Const c -> Some c
        | Baseline -> List.assoc_opt r.name baseline
        | Record n ->
          List.find_map (fun o -> if o.name = n then Some o.value else None) records
      in
      match bar with
      | None -> Some (r, "no value to compare against")
      | Some _ when r.kind = Wall && cores < 2 -> None
      | Some b when holds op r.value b -> None
      | Some b ->
        Some
          (r, Printf.sprintf "%s, not %s (%s)" (num r.value) (gate_to_string r.gate) (num b)))
    records

let run ~quick ~trace () =
  let mode = if quick then "quick" else "full" in
  let json, baseline = read_baseline ~mode in
  let cores = Dh_parallel.Pool.default_jobs () in
  Report.heading
    (Printf.sprintf "Gates (%s, %d cores), baseline %s" mode cores baseline_path);
  let records =
    List.concat_map
      (fun leg -> leg ~quick)
      [
        obs_leg ~trace; writes_leg; recovery_leg; space_leg; audit_leg; serve_leg;
        scaling_leg;
      ]
  in
  let failures = check ~cores ~baseline records in
  Report.subheading "gate records";
  Report.table
    ~header:[ "record"; "kind"; "value"; "spread"; "unit"; "gate"; "verdict" ]
    (List.map
       (fun r ->
         [
           r.name; List.assoc r.kind kinds; num r.value;
           (if r.repeats > 1 then Printf.sprintf "%s (n=%d)" (num r.spread) r.repeats
            else "");
           r.unit_; gate_to_string r.gate;
           (if List.mem_assq r failures then "FAIL"
            else if r.kind = Wall && cores < 2 then "skipped (1 core)"
            else "ok");
         ])
       records);
  if failures <> [] then begin
    List.iter
      (fun (r, msg) -> Printf.eprintf "GATE FAILED: %s = %s\n%!" r.name msg)
      failures;
    exit 3
  end;
  (* Every gate held: this mode's set becomes its baseline; the other
     mode's set is kept as read. *)
  let set m =
    if m = mode then
      set_to_string
        (Obj
           [
             ("cores", Number (float_of_int cores));
             ("records", List (List.map record_json records));
           ])
    else set_to_string (Option.value (Json.member m json) ~default:(Obj []))
  in
  Out_channel.with_open_bin baseline_path (fun oc ->
      Printf.fprintf oc "{\n  \"schema\": %S,\n  \"quick\": %s,\n  \"full\": %s\n}\n" schema
        (set "quick") (set "full"));
  Printf.printf "all %d gates hold; wrote the %s set of %s\n%!" (List.length records) mode
    baseline_path
