(* Tests for the Dh_obs telemetry stack: metrics registry bucketing,
   kinds and shard merging, allocation-free local handles, trace-ring wraparound and Chrome JSON export, the
   fault flight recorder's bounds, the vendored JSON parser, and the
   guarded derived ratios in the stats reporters.

   Every test that enables observability runs under [with_clean], which
   forces the switch on, wipes the process-wide registry/rings/reports,
   and restores everything afterwards, so telemetry never leaks between
   tests (or into the determinism suites in test_parallel.ml). *)

module Control = Dh_obs.Control
module Metrics = Dh_obs.Metrics
module Quantile = Dh_obs.Quantile
module Window = Dh_obs.Window
module Tracing = Dh_obs.Tracing
module Recorder = Dh_obs.Recorder
module Json = Dh_obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let wipe () =
  Metrics.reset Metrics.default;
  Tracing.reset ();
  Recorder.clear ()

let with_clean f =
  Control.with_enabled true (fun () ->
      wipe ();
      Fun.protect ~finally:wipe f)

(* --- histogram bucketing ------------------------------------------- *)

(* Registry histograms are Quantile histograms: exact below 64, then 32
   sub-buckets per power of two, up to max_int. *)
let test_bucket_edges () =
  with_clean @@ fun () ->
  List.iter
    (fun (v, (lo, hi)) ->
      let bounds = Quantile.bucket_bounds (Quantile.bucket_of v) in
      check (Printf.sprintf "bucket of %d is [%d, %d]" v lo hi) true (bounds = (lo, hi));
      let h = Metrics.histogram Metrics.default (Printf.sprintf "test.edge.%d" v) in
      Quantile.record h v;
      check_int
        (Printf.sprintf "registry histogram reports %d's bound" v)
        hi
        (Quantile.quantile (Quantile.snapshot h) 0.5))
    [
      (0, (0, 0));
      (1, (1, 1));
      (63, (63, 63));
      (64, (64, 65));
      (65, (64, 65));
      (1023, (1008, 1023));
      (1024, (1024, 1055));
      (max_int, ((63 lsl 56), max_int));
    ];
  check "bucket_count covers every int" true
    (Quantile.bucket_of max_int < Quantile.bucket_count);
  (match Quantile.bucket_of (-1) with
  | exception Invalid_argument _ -> ()
  | b -> Alcotest.failf "bucket_of (-1) returned %d instead of raising" b)

let test_histogram_observe () =
  with_clean @@ fun () ->
  let h = Metrics.histogram Metrics.default "test.hist" in
  check "get-or-create returns the same histogram" true
    (Metrics.histogram Metrics.default "test.hist" == h);
  List.iter (Quantile.record h) [ 0; 1; 3; 1024 ];
  let s = Quantile.snapshot h in
  check_int "total" 4 (Quantile.count s);
  check_int "sum" 1028 (Quantile.sum s);
  (* one sample per bucket: each rank lands on its own sample's bound *)
  check_int "rank 1" 0 (Quantile.quantile s 0.25);
  check_int "rank 2" 1 (Quantile.quantile s 0.5);
  check_int "rank 3" 3 (Quantile.quantile s 0.75);
  check_int "rank 4" 1055 (Quantile.quantile s 1.0);
  (* max_int lands in the last bucket without overflowing the index *)
  Quantile.record h max_int;
  let s = Quantile.snapshot h in
  check_int "max_int bucket" max_int (Quantile.max_value s);
  check_int "total after max_int" 5 (Quantile.count s);
  match Quantile.record h (-5) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative observe accepted"

let test_disabled_is_noop () =
  with_clean @@ fun () ->
  let c = Metrics.counter Metrics.default "test.noop.counter" in
  let h = Metrics.histogram Metrics.default "test.noop.hist" in
  Control.with_enabled false (fun () ->
      Metrics.add c 42;
      Quantile.record h 42;
      (* the sign check only runs while enabled: no raise here *)
      Quantile.record h (-1);
      Tracing.instant "test.noop";
      Tracing.span "test.noop.span" (fun () -> ());
      Recorder.trigger ~reason:"noop" ());
  check_int "counter untouched" 0 (Metrics.counter_value c);
  check_int "histogram untouched" 0 (Quantile.count (Quantile.snapshot h));
  check_int "no events" 0 (List.length (Tracing.events ()));
  check_int "no reports" 0 (List.length (Recorder.reports ()))

let test_counter_shard_merge () =
  with_clean @@ fun () ->
  let c = Metrics.counter Metrics.default "test.shard.counter" in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Metrics.incr c
            done))
  in
  for _ = 1 to 1000 do
    Metrics.incr c
  done;
  Array.iter Domain.join domains;
  check_int "merged across shards" 5000 (Metrics.counter_value c)

let test_gauges () =
  with_clean @@ fun () ->
  let g = Metrics.gauge Metrics.default "test.gauge" in
  Metrics.set g 17;
  check_int "gauge set" 17 (Metrics.gauge_value g);
  (* callback gauges: newest registration wins, raising callback reads 0 *)
  Metrics.gauge_fn Metrics.default "test.gauge_fn" (fun () -> 1);
  Metrics.gauge_fn Metrics.default "test.gauge_fn" (fun () -> 2);
  Metrics.gauge_fn Metrics.default "test.gauge_fn.raising" (fun () ->
      failwith "boom");
  let rows = Metrics.dump Metrics.default in
  let value name =
    match List.find_opt (fun r -> r.Metrics.name = name) rows with
    | Some r -> r.Metrics.value
    | None -> Alcotest.failf "row %s missing from dump" name
  in
  check_int "callback replaced" 2 (value "test.gauge_fn");
  check_int "raising callback reads 0" 0 (value "test.gauge_fn.raising")

let test_kind_mismatch () =
  with_clean @@ fun () ->
  ignore (Metrics.counter Metrics.default "test.kind");
  match Metrics.histogram Metrics.default "test.kind" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_csv_dump () =
  with_clean @@ fun () ->
  let c = Metrics.counter Metrics.default "test.csv.counter" in
  Metrics.add c 3;
  let h = Metrics.histogram Metrics.default "test.csv.histogram" in
  List.iter (Quantile.record h) [ 1; 2; 3; 4; 100 ];
  let csv = Metrics.to_csv Metrics.default in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: _ -> check_str "header" "name,kind,value,p50,p99,detail" header
  | [] -> Alcotest.fail "empty csv");
  check "counter row present" true
    (List.exists
       (fun l ->
         String.length l >= 22 && String.sub l 0 22 = "test.csv.counter,count")
       lines);
  (* Counters leave the quantile cells empty; histograms fill both. *)
  List.iter
    (fun l ->
      match String.split_on_char ',' l with
      | [ "test.csv.counter"; _; _; p50; p99; _ ] ->
        check_str "counter p50 empty" "" p50;
        check_str "counter p99 empty" "" p99
      | [ "test.csv.histogram"; kind; value; p50; p99; detail ] ->
        check_str "histogram kind" "histogram" kind;
        check_str "histogram count" "5" value;
        (* p50 is exact below 64; 100 sits in the [100, 101] bucket *)
        check_str "histogram p50" "3" p50;
        check_str "histogram p99" "101" p99;
        check_str "histogram detail" "sum=110 mean=22.0" detail
      | _ -> ())
    lines

let test_dump_quantiles () =
  with_clean @@ fun () ->
  let h = Metrics.histogram Metrics.default "test.hq" in
  (* 10 samples of 1 (an exact bucket), one of 100 (bucket [100, 101]). *)
  for _ = 1 to 10 do
    Quantile.record h 1
  done;
  Quantile.record h 100;
  let row name =
    List.find (fun r -> r.Metrics.name = name) (Metrics.dump Metrics.default)
  in
  let r = row "test.hq" in
  check "p50 = small bucket bound" true (r.Metrics.p50 = Some 1);
  check "p99 lands in the top bucket" true (r.Metrics.p99 = Some 101);
  ignore (Metrics.histogram Metrics.default "test.hq.empty");
  let e = row "test.hq.empty" in
  check "empty histogram quantile 0" true (e.Metrics.p50 = Some 0 && e.Metrics.p99 = Some 0)

(* Heaps and the serve loop hold a handle per instrument; creating one
   must not allocate a cell (a Quantile cell is 58 x 32 ints). *)
let test_handles_allocate_no_cell () =
  with_clean @@ fun () ->
  let h = Metrics.histogram Metrics.default "test.handles" in
  let n = 1000 in
  let per_handle make =
    let before = Gc.allocated_bytes () in
    let handles = Array.init n (fun _ -> make ()) in
    let bytes = (Gc.allocated_bytes () -. before) /. float_of_int n in
    (handles, bytes)
  in
  let qs, q_bytes = per_handle (fun () -> Quantile.local h) in
  check (Printf.sprintf "Quantile.local: %.0f B/handle < 1 KiB" q_bytes) true
    (q_bytes < 1024.);
  let _, a_bytes = per_handle Dh_obs.Audit.local in
  check (Printf.sprintf "Audit.local: %.0f B/handle < 1 KiB" a_bytes) true
    (a_bytes < 1024.);
  (* the first record resolves the real cell; later ones reuse it *)
  Array.iteri (fun i l -> Quantile.record_local l i) qs;
  Quantile.record_local qs.(0) 5;
  let s = Quantile.snapshot h in
  check_int "every handle recorded" (n + 1) (Quantile.count s);
  check_int "sum through handles" ((n * (n - 1) / 2) + 5) (Quantile.sum s)

let test_gauge_fn_kind_mismatch () =
  with_clean @@ fun () ->
  let reg = Metrics.default in
  let c = Metrics.counter reg "test.gf.counter" in
  Metrics.add c 4;
  ignore (Metrics.histogram reg "test.gf.histogram");
  ignore (Metrics.window reg "test.gf.window" ~width:4 ~buckets:2);
  List.iter
    (fun name ->
      match Metrics.gauge_fn reg name (fun () -> 1) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "gauge_fn replaced %s" name)
    [ "test.gf.counter"; "test.gf.histogram"; "test.gf.window" ];
  let rows = Metrics.dump reg in
  let kind name = (List.find (fun r -> r.Metrics.name = name) rows).Metrics.kind in
  check_str "counter survives" "counter" (kind "test.gf.counter");
  check_str "histogram survives" "histogram" (kind "test.gf.histogram");
  check_int "counter value intact" 4 (Metrics.counter_value c);
  check "window survives" true (Metrics.find_window reg "test.gf.window" <> None);
  (* replacing a gauge, plain or callback, is still allowed *)
  Metrics.set (Metrics.gauge reg "test.gf.gauge") 3;
  Metrics.gauge_fn reg "test.gf.gauge" (fun () -> 9);
  check_int "gauge replaced by callback" 9
    (List.find (fun r -> r.Metrics.name = "test.gf.gauge") (Metrics.dump reg)).Metrics.value

let test_one_registry () =
  with_clean @@ fun () ->
  let reg = Metrics.default in
  let w = Metrics.window reg "test.reg.window" ~width:10 ~buckets:4 in
  check "same window" true (Metrics.window reg "test.reg.window" ~width:10 ~buckets:4 == w);
  (match Metrics.counter reg "test.reg.window" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter over a window accepted");
  ignore (Metrics.counter reg "test.reg.counter");
  (match Metrics.window reg "test.reg.counter" ~width:10 ~buckets:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "window over a counter accepted");
  check "find_window ignores other kinds" true
    (Metrics.find_window reg "test.reg.counter" = None);
  Quantile.record (Metrics.histogram reg "test.reg.histogram") 7;
  Window.add w ~now:0 1;
  (* one reset clears every kind *)
  Metrics.reset reg;
  check "window dropped" true (Metrics.find_window reg "test.reg.window" = None);
  check_int "histogram dropped" 0
    (Quantile.count (Quantile.snapshot (Metrics.histogram reg "test.reg.histogram")));
  check_int "dump holds only what was recreated" 1 (List.length (Metrics.dump reg))

(* --- tracing -------------------------------------------------------- *)

let test_ring_wrap () =
  with_clean @@ fun () ->
  let extra = 100 in
  for i = 1 to Tracing.ring_capacity + extra do
    Tracing.instant ~arg:(string_of_int i) "test.wrap"
  done;
  check_int "recorded counts overwritten events"
    (Tracing.ring_capacity + extra)
    (Tracing.recorded ());
  check_int "dropped = overflow" extra (Tracing.dropped ());
  let events = Tracing.events () in
  check_int "ring retains capacity" Tracing.ring_capacity (List.length events);
  (* the oldest retained event is the first one that was not overwritten *)
  (match events with
  | first :: _ -> check_str "oldest survivor" (string_of_int (extra + 1)) first.Tracing.arg
  | [] -> Alcotest.fail "no events");
  check_int "last_events bounds" 10 (List.length (Tracing.last_events 10))

let test_span_exception_safe () =
  with_clean @@ fun () ->
  (try Tracing.span "test.raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  match List.rev (Tracing.events ()) with
  | last :: prev :: _ ->
    check "end recorded" true (last.Tracing.phase = Tracing.End);
    check "begin recorded" true (prev.Tracing.phase = Tracing.Begin)
  | _ -> Alcotest.fail "span did not record both events"

let test_chrome_json () =
  with_clean @@ fun () ->
  Tracing.span ~arg:"7" "test.span" (fun () -> Tracing.instant "test \"quoted\"");
  let json = Tracing.to_chrome_json () in
  match Json.parse json with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok v ->
    let events = Option.fold ~none:[] ~some:Json.to_list (Json.member "traceEvents" v) in
    check_int "three events" 3 (List.length events);
    let phases =
      List.filter_map
        (fun e -> Option.bind (Json.member "ph" e) Json.string_value)
        events
    in
    check "phases" true (List.sort compare phases = [ "B"; "E"; "i" ]);
    check "escaped name round-trips" true
      (List.exists
         (fun e ->
           Option.bind (Json.member "name" e) Json.string_value
           = Some "test \"quoted\"")
         events)

(* --- flight recorder ------------------------------------------------ *)

let test_recorder_capture () =
  with_clean @@ fun () ->
  for i = 1 to Recorder.window + 20 do
    Tracing.instant ~arg:(string_of_int i) "test.rec"
  done;
  Recorder.register_context "test.ctx" (fun () -> "ctx body");
  Recorder.register_context "test.ctx" (fun () -> "ctx body v2");
  Recorder.register_context "test.ctx.raising" (fun () -> failwith "boom");
  Metrics.add (Metrics.counter Metrics.default "test.rec.counter") 1;
  Recorder.trigger
    ~sections:[ { Recorder.title = "caller"; body = "caller body" } ]
    ~reason:"unit test" ();
  match Recorder.last () with
  | None -> Alcotest.fail "no report captured"
  | Some r ->
    check_str "reason" "unit test" r.Recorder.reason;
    check_int "window bound" Recorder.window (List.length r.Recorder.events);
    check "metrics snapshot" true
      (List.exists
         (fun row -> row.Metrics.name = "test.rec.counter")
         r.Recorder.metrics);
    let body title =
      match
        List.find_opt (fun s -> s.Recorder.title = title) r.Recorder.sections
      with
      | Some s -> s.Recorder.body
      | None -> Alcotest.failf "section %s missing" title
    in
    check_str "caller section first" "caller"
      (match r.Recorder.sections with
      | s :: _ -> s.Recorder.title
      | [] -> "");
    check_str "provider replaced" "ctx body v2" (body "test.ctx");
    check "raising provider noted, capture survives" true
      (String.length (body "test.ctx.raising") > 0)

let test_recorder_bounds () =
  with_clean @@ fun () ->
  for i = 1 to Recorder.max_reports + 5 do
    Recorder.trigger ~reason:(Printf.sprintf "capture %d" i) ()
  done;
  let reports = Recorder.reports () in
  check_int "bounded queue" Recorder.max_reports (List.length reports);
  (match reports with
  | oldest :: _ ->
    check_str "oldest retained" "capture 6" oldest.Recorder.reason
  | [] -> Alcotest.fail "no reports");
  let drained = Recorder.take () in
  check_int "take drains everything" Recorder.max_reports (List.length drained);
  check_int "queue empty after take" 0 (List.length (Recorder.reports ()))

(* --- JSON parser ---------------------------------------------------- *)

let test_json_parser () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\u0041\n", "c": true, "d": null}|} with
  | Json.Obj fields ->
    check_int "fields" 4 (List.length fields);
    (match List.assoc "a" fields with
    | Json.List [ Json.Number a; Json.Number b; Json.Number c ] ->
      check "numbers" true (a = 1. && b = 2.5 && c = -300.)
    | _ -> Alcotest.fail "list shape");
    check "unicode + escape" true
      (List.assoc "b" fields = Json.String "xA\n");
    check "bool" true (List.assoc "c" fields = Json.Bool true);
    check "null" true (List.assoc "d" fields = Json.Null)
  | _ -> Alcotest.fail "object shape");
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S parsed but should not" s
      | Error _ -> ())
    [ "{} trailing"; "{\"a\":}"; "\"unterminated"; "[1,]"; "nul"; "" ];
  check "member on non-obj" true (Json.member "a" (Json.List []) = None);
  check "to_list on non-list" true (Json.to_list Json.Null = [])

(* --- guarded derived ratios in the reporters ------------------------ *)

let test_stats_pp_guards () =
  let fresh = Dh_alloc.Stats.create () in
  let s = Format.asprintf "%a" Dh_alloc.Stats.pp fresh in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "empty run prints a dash, not nan" true (contains ~sub:"probes/malloc=-" s);
  fresh.Dh_alloc.Stats.mallocs <- 2;
  fresh.Dh_alloc.Stats.probes <- 4;
  let s = Format.asprintf "%a" Dh_alloc.Stats.pp fresh in
  check "ratio printed when defined" true (contains ~sub:"probes/malloc=2.00" s);
  let mem = Dh_mem.Mem.create () in
  let s = Format.asprintf "%a" Dh_mem.Mem.pp_stats (Dh_mem.Mem.stats mem) in
  check "mem hit rates guarded" true (contains ~sub:"tlb-hit=-" s)

let test_with_enabled_restores () =
  let before = Control.enabled () in
  (try
     Control.with_enabled (not before) (fun () ->
         check "forced" (not before) (Control.enabled ());
         failwith "boom")
   with Failure _ -> ());
  check "restored after raise" before (Control.enabled ())

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "disabled recording is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "counter shards merge" `Quick test_counter_shard_merge;
    Alcotest.test_case "gauges and callbacks" `Quick test_gauges;
    Alcotest.test_case "instrument kind mismatch" `Quick test_kind_mismatch;
    Alcotest.test_case "metrics csv dump" `Quick test_csv_dump;
    Alcotest.test_case "metrics histogram quantile" `Quick test_dump_quantiles;
    Alcotest.test_case "local handles allocate no cell" `Quick test_handles_allocate_no_cell;
    Alcotest.test_case "gauge_fn rejects another kind" `Quick test_gauge_fn_kind_mismatch;
    Alcotest.test_case "one registry, one reset" `Quick test_one_registry;
    Alcotest.test_case "trace ring wraps" `Quick test_ring_wrap;
    Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
    Alcotest.test_case "flight recorder capture" `Quick test_recorder_capture;
    Alcotest.test_case "flight recorder bounds" `Quick test_recorder_bounds;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "reporter ratio guards" `Quick test_stats_pp_guards;
    Alcotest.test_case "with_enabled restores" `Quick test_with_enabled_restores;
  ]
