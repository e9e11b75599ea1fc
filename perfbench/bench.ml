(* The repository's benchmark: four workloads, timed from outside.

   Everything here calls the libraries through their public interfaces
   (Supervisor.run ?wrap, the Allocator.t record, Program.service /
   Program.t, Replicated.run, Mem.stats, Heap.stats) and times those
   calls with a nanosecond monotonic clock.  Untraced runs wrap only the
   unit of work (a request's [handle], a replica's [main]; a Driver
   replay is timed around its call); traced runs also wrap the allocator
   to split the cost by layer.  See README.md in this directory for every metric. *)

open Meter
module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
module Stats = Dh_alloc.Stats
module Config = Diehard.Config
module Heap = Diehard.Heap
module Supervisor = Diehard.Supervisor
module Replicated = Diehard.Replicated
module Seed = Dh_rng.Seed
module Pool = Dh_parallel.Pool
module Server = Dh_workload.Server
module Driver = Dh_workload.Driver
module Profile = Dh_workload.Profile
module Apps = Dh_workload.Apps

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  quick : bool;  (* small units, for the determinism test *)
  steps : int option;  (* a fixed number of steps instead of a deadline *)
  jobs : int;
  trace_file : string option;
}

(* Totals of one run.  A step is the benchmark's unit of set-up: one
   supervised server run of [requests] requests, one round of Driver
   replays, or one replicated execution. *)
type run = {
  mutable units : int;
  mutable failed : int;
  mutable timed : float;  (* calibrated ns of the timed sections, set-up excluded *)
  mutable raw_ns : int;  (* the same in host ns *)
  mutable elapsed : float;  (* calibrated ns, set-up included *)
  mutable setups : float list;  (* calibrated seconds, one per set-up *)
  mutable resident : float list;  (* KiB, one per step *)
  window : Hist.t;  (* latency samples of the current window, ns *)
  mutable samples : int;
  mutable windows : (float * float * float) list;  (* p50, p99, p99.9 per window *)
  mutable counts : (string * int) list;  (* deterministic, newest first *)
  mutable layers : (string * float) list;  (* traced only *)
  mutable top_heap_words : int;  (* Gc.top_heap_words when the timed loop ends *)
  spans : Spans.t;
}

let new_run () =
  {
    units = 0;
    failed = 0;
    timed = 0.;
    raw_ns = 0;
    elapsed = 0.;
    setups = [];
    resident = [];
    window = Hist.create ();
    samples = 0;
    windows = [];
    counts = [];
    layers = [];
    top_heap_words = 0;
    spans = Spans.create ();
  }

let count r name n =
  match List.assoc_opt name r.counts with
  | Some v -> r.counts <- (name, v + n) :: List.remove_assoc name r.counts
  | None -> r.counts <- (name, n) :: r.counts

(* Latency percentiles are windowed: each window's p50 / p99 / p99.9,
   then the median over windows.  A pooled p99.9 over a whole run is set
   by a few rare events (double faults in one rewound window, one host
   hiccup in a hundred executions) and moved by 20-75% between seeds;
   the median over windows moves with the typical window. *)
let sample r ns =
  Hist.add r.window ns;
  r.samples <- r.samples + 1

let close_window r =
  if r.window.Hist.n > 0 then begin
    let q = Hist.quantile r.window in
    r.windows <- (q 0.5, q 0.99, q 0.999) :: r.windows;
    Hist.clear r.window
  end

let get r name = Option.value (List.assoc_opt name r.counts) ~default:0
let layer r name value = r.layers <- (name, value) :: r.layers

(* Every per-layer metric this program reports, in order, with its unit;
   a layer a workload does not run reports 0 there.  run.py adds
   trace.overhead_pct and obs.handle_overhead_ns, which need two runs. *)
let per_layer =
  [
    ("heap.malloc_ns", "ns"); ("heap.free_ns", "ns"); ("heap.probes_per_malloc", "count");
    ("heap.meshes", "count"); ("mem.writes_per_unit", "count");
    ("mem.reads_per_unit", "count"); ("mem.cache_misses_per_unit", "count");
    ("mem.preimages_per_unit", "count"); ("mem.preimage_ns", "ns"); ("mem.cow_share", "ratio");
    ("supervisor.self_share", "ratio"); ("supervisor.checkpoints", "count");
    ("supervisor.rewinds", "count"); ("supervisor.pages_restored", "count");
    ("supervisor.replay_ratio", "ratio"); ("server.self_ns", "ns"); ("driver.self_ns", "ns");
    ("interp.self_ms", "ms"); ("voter.self_ms", "ms"); ("pool.busy_frac", "ratio");
    ("pool.speedup_j2", "ratio");
  ]
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Account one timed unit of work that started at [t_start], finished
   its set-up at [t_timed] and ended at [t_end]; returns the factor that
   turns its host time into calibrated time. *)
let account r ~t_start ~t_timed ~t_end =
  let f = Speed.factor () in
  r.setups <- (f *. float_of_int (t_timed - t_start) *. 1e-9) :: r.setups;
  r.timed <- r.timed +. (f *. float_of_int (t_end - t_timed));
  r.raw_ns <- r.raw_ns + (t_end - t_timed);
  r.elapsed <- r.elapsed +. (f *. float_of_int (t_end - t_start));
  f

(* Run [step 0], [step 1], ... for [opts.seconds] of calibrated time (or
   for [opts.steps] steps), so a run does the same amount of work however
   fast the host happens to be; on a host slower than 1.6x nominal the
   run is cut off by wall time.  Time spent before the first step is not
   measured. *)
let drive opts r step =
  let wall_cap = now () + int_of_float (1.6 *. opts.seconds *. 1e9) in
  let i = ref 0 in
  Speed.start ();
  let more () =
    match opts.steps with
    | Some s -> !i < s
    | None -> !i = 0 || (r.elapsed < opts.seconds *. 1e9 && now () < wall_cap)
  in
  while more () do
    step !i;
    incr i
  done;
  r.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words

let add_mem_stats r mem =
  let s = Mem.stats mem in
  count r "mem.reads" s.Mem.reads;
  count r "mem.writes" s.Mem.writes;
  count r "mem.cache_misses" s.Mem.cache_misses;
  count r "mem.preimages" (Mem.preimaged_pages mem)

let add_heap_stats r (s : Stats.t) =
  count r "heap.mallocs" s.Stats.mallocs;
  count r "heap.probes" s.Stats.probes

(* --- the allocator, timed from outside (traced runs only) --- *)

type heap_meter = {
  mutable malloc_ns : int;
  mutable mallocs : int;
  mutable free_ns : int;
  mutable frees : int;
  mutable parent : int;  (* enclosing span, for span recording *)
  mutable unit_id : int;
  hm_spans : Spans.t option;  (* None when called from several domains *)
}

let heap_meter hm_spans =
  {
    malloc_ns = 0;
    mallocs = 0;
    free_ns = 0;
    frees = 0;
    parent = -1;
    unit_id = 0;
    hm_spans;
  }

let heap_ns hm = hm.malloc_ns + hm.free_ns

let wrap_heap hm (a : Allocator.t) =
  let span name t0 t1 =
    match hm.hm_spans with
    | Some s -> Spans.add s ~name ~id:hm.unit_id ~parent:hm.parent ~start:t0 ~stop:t1
    | None -> ()
  in
  {
    a with
    Allocator.malloc =
      (fun sz ->
        let t0 = now () in
        let p = a.Allocator.malloc sz in
        let t1 = now () in
        hm.malloc_ns <- hm.malloc_ns + (t1 - t0);
        hm.mallocs <- hm.mallocs + 1;
        span "heap.malloc" t0 t1;
        p);
    free =
      (fun addr ->
        let t0 = now () in
        a.Allocator.free addr;
        let t1 = now () in
        hm.free_ns <- hm.free_ns + (t1 - t0);
        hm.frees <- hm.frees + 1;
        span "heap.free" t0 t1);
  }

(* Per-layer times are host times scaled by the run's mean calibration
   factor, so they compare across runs like the end-to-end figures. *)
let cal r = if r.raw_ns = 0 then 1. else r.timed /. float_of_int r.raw_ns

let heap_layers r hm =
  layer r "heap.malloc_ns" (cal r *. ratio hm.malloc_ns hm.mallocs);
  layer r "heap.free_ns" (cal r *. ratio hm.free_ns hm.frees);
  layer r "heap.probes_per_malloc" (ratio (get r "heap.probes") (get r "heap.mallocs"))

let mem_layers r ~preimage_ns =
  let per name = ratio (get r name) r.units in
  layer r "mem.writes_per_unit" (per "mem.writes");
  layer r "mem.reads_per_unit" (per "mem.reads");
  layer r "mem.cache_misses_per_unit" (per "mem.cache_misses");
  layer r "mem.preimages_per_unit" (per "mem.preimages");
  layer r "mem.preimage_ns" preimage_ns;
  layer r "mem.cow_share"
    (float_of_int (get r "mem.preimages") *. preimage_ns /. Float.max 1. r.timed)

(* The unit cost of one copy-on-write pre-image: the first [write64] to
   each of 256 pages under an armed checkpoint, minus the same writes
   unarmed.  Median of 31 repetitions, calibrated. *)
let measure_preimage_ns () =
  let pages = 256 in
  let mem = Mem.create () in
  let base = Mem.mmap mem (pages * Mem.page_size) in
  let pass () =
    let t0 = now () in
    for p = 0 to pages - 1 do
      Mem.write64 mem (base + (p * Mem.page_size)) p
    done;
    now () - t0
  in
  ignore (pass ());
  let ns =
    median
      (List.init 31 (fun _ ->
           let plain = pass () in
           Mem.checkpoint mem;
           let armed = pass () in
           Mem.discard_checkpoint mem;
           float_of_int (armed - plain) /. float_of_int pages))
  in
  ns *. Speed.factor ()

(* --- serve-attack / serve-obs ---

   The Squid-style server under the supervisor's rewind rung: Zipf(1.1)
   keys, a 3000-byte URL every 997th request, a checkpoint every 512
   requests.  Each step is one supervised run of [requests] requests on
   a fresh heap whose seed comes from the workload's seed pool. *)

let zipf_s = 1.1
let attack_every = 997

let serve_policy =
  {
    Supervisor.default_policy with
    Supervisor.checkpoint_interval = 512;
    max_rewinds = 4096;
    fuel = 200_000_000;
  }

(* Half of [Server.heap_size]: an overlong URL then faults on ~9% of
   attacks instead of ~4.5%, so ~2.3% of requests sit in rewound windows.
   At the full size that share is ~1.1%, p99 lands on the edge of the
   rewound population, and it moved by 13-38% between seeds. *)
let serve_heap = Server.heap_size / 2

type serve_step = {
  mutable first_start : int;  (* first handle start of the step, -1 before *)
  mutable calls : int;
  mutable busy : int;  (* Σ handle time *)
  mutable self : int;  (* Σ handle time minus the heap time inside it *)
  mutable ctxs : Allocator.t list;  (* one per supervisor attempt *)
}

let serve ~obs opts r =
  let requests = if opts.quick then 2_000 else 25_000 in
  let config = Config.v ~heap_size:serve_heap ~obs () in
  (* Reference output: placement-independent, so every step — any seed,
     obs on or off — must print exactly this.  Made untimed, obs off. *)
  let reference =
    (Supervisor.run ~policy:serve_policy
       ~config:(Config.v ~heap_size:serve_heap ())
       ~seed_pool:(Seed.create ~master:0x5EED)
       (Server.program ~requests ~attack_every ~zipf:zipf_s ()))
      .Supervisor.output
  in
  if obs then
    ignore (Dh_obs.Slo.configure ~name:"serve" ~target:200_000 ~budget:0.01 ());
  let first = Bigarray.(Array1.create int c_layout requests) in
  let last = Bigarray.(Array1.create int c_layout requests) in
  Bigarray.Array1.fill first 0;
  let st = { first_start = -1; calls = 0; busy = 0; self = 0; ctxs = [] } in
  let hm = heap_meter (Some r.spans) in
  let pool = Seed.create ~master:opts.seed in
  let timed (svc : Program.service) ~base =
    {
      svc with
      Program.init =
        (fun ctx ->
          st.ctxs <- ctx.Program.alloc :: st.ctxs;
          let h = svc.Program.init ctx in
          let handle k =
            let t0 = now () in
            if st.first_start < 0 then st.first_start <- t0;
            if Bigarray.Array1.unsafe_get first k = 0 then
              Bigarray.Array1.unsafe_set first k t0;
            st.calls <- st.calls + 1;
            let heap0 = heap_ns hm in
            let span =
              if opts.traced then begin
                hm.unit_id <- base + k;
                let s =
                  Spans.open_ r.spans ~name:"server.handle" ~id:(base + k) ~parent:(-1)
                    ~start:t0
                in
                hm.parent <- s;
                s
              end
              else -1
            in
            let finish () =
              let t1 = now () in
              st.busy <- st.busy + (t1 - t0);
              st.self <- st.self + (t1 - t0) - (heap_ns hm - heap0);
              Spans.close r.spans span ~stop:t1;
              t1
            in
            match h.Program.handle k with
            | () -> Bigarray.Array1.unsafe_set last k (finish ())
            | exception e ->
              ignore (finish ());
              raise e
          in
          { h with Program.handle });
    }
  in
  let busy = ref 0 and busy_cal = ref 0. and self = ref 0 and calls = ref 0 in
  let step i =
    st.first_start <- -1;
    st.calls <- 0;
    st.busy <- 0;
    st.self <- 0;
    st.ctxs <- [];
    hm.parent <- -1;
    let seed_pool = Seed.create ~master:(Seed.fresh pool) in
    let t_start = now () in
    let program =
      Program.of_service ~name:"squid-server"
        (timed ~base:(i * requests)
           (Server.service ~requests ~attack_every ~zipf:zipf_s ()))
    in
    let wrap = if opts.traced then Some (fun _plan a -> wrap_heap hm a) else None in
    let incident = Supervisor.run ~policy:serve_policy ~config ~seed_pool ?wrap program in
    let t_end = now () in
    let f = account r ~t_start ~t_timed:st.first_start ~t_end in
    r.units <- r.units + requests;
    let survived =
      match incident.Supervisor.verdict with
      | Supervisor.Survived a ->
        (List.nth incident.Supervisor.attempts a).Supervisor.plan.Supervisor.mode
        = Supervisor.Randomized
      | Supervisor.Gave_up -> false
    in
    if not (survived && incident.Supervisor.output = reference) then
      r.failed <- r.failed + requests;
    count r "checksum"
      (Hashtbl.hash (Option.value incident.Supervisor.output ~default:""));
    for k = 0 to requests - 1 do
      let ns = Bigarray.Array1.get last k - Bigarray.Array1.get first k in
      sample r (int_of_float (f *. float_of_int ns))
    done;
    close_window r;
    Bigarray.Array1.fill first 0;
    List.iter
      (fun (a : Allocator.t) ->
        add_mem_stats r a.Allocator.mem;
        add_heap_stats r a.Allocator.stats)
      st.ctxs;
    (match st.ctxs with
    | a :: _ ->
      r.resident <- float_of_int (Mem.touched_pages a.Allocator.mem * 4) :: r.resident
    | [] -> ());
    List.iter
      (fun (a : Supervisor.attempt_report) ->
        match a.Supervisor.recovery with
        | Some rc ->
          count r "supervisor.checkpoints" rc.Supervisor.checkpoints;
          count r "supervisor.rewinds" rc.Supervisor.rewinds;
          count r "supervisor.pages_restored" rc.Supervisor.pages_restored
        | None -> ())
      incident.Supervisor.attempts;
    count r "server.handle_calls" st.calls;
    busy := !busy + st.busy;
    busy_cal := !busy_cal +. (f *. float_of_int st.busy);
    self := !self + st.self;
    calls := !calls + st.calls
  in
  drive opts r step;
  if obs then Dh_obs.Slo.deactivate ();
  let extra = [ ("handle_ns_mean", !busy_cal /. float_of_int (max 1 !calls)) ] in
  if opts.traced then begin
    heap_layers r hm;
    mem_layers r ~preimage_ns:(measure_preimage_ns ());
    let per name = ratio (get r name) r.units in
    layer r "supervisor.self_share" (ratio (r.raw_ns - !busy) r.raw_ns);
    layer r "supervisor.checkpoints" (per "supervisor.checkpoints");
    layer r "supervisor.rewinds" (per "supervisor.rewinds");
    layer r "supervisor.pages_restored" (per "supervisor.pages_restored");
    layer r "supervisor.replay_ratio" (per "server.handle_calls");
    layer r "server.self_ns" (cal r *. ratio !self !calls);
  end;
  extra

(* --- alloc-mesh ---

   The Driver replays three allocation-intensive profiles on stand-alone
   DieHard heaps with page meshing on.  Each step is one round: one
   replay of each profile, each on a fresh heap seeded from the pool.
   The Driver's own seed is the workload seed, so its checksum is fixed
   per run and checked against the same replay on the freelist
   allocator. *)

let mesh_profiles = [ "cfrac"; "espresso"; "300.twolf" ]
let heap_size_of p = max (Driver.heap_size_for p) (24 lsl 20)

let alloc_mesh opts r =
  let factor = if opts.quick then 0.02 else 0.25 in
  let profiles =
    List.map
      (fun name -> Profile.scale (Option.get (Profile.find name)) ~factor)
      mesh_profiles
  in
  let pool = Seed.create ~master:opts.seed in
  let hm = heap_meter (Some r.spans) in
  let checksums = Hashtbl.create 8 in
  (* Warm-up, untimed and on heaps seeded apart from the timed ones. *)
  List.iter
    (fun p ->
      let config = Config.v ~heap_size:(heap_size_of p) ~seed:0x5EED ~mesh:true () in
      let heap = Heap.create ~config (Mem.create ()) in
      ignore (Driver.run ~seed:opts.seed p (Heap.allocator heap)))
    profiles;
  let driver_ns = ref 0 and meshes = ref 0 in
  let step i =
    let resident = ref 0 in
    List.iteri
      (fun j (p : Profile.t) ->
        let t_start = now () in
        let mem = Mem.create () in
        let config =
          Config.v ~heap_size:(heap_size_of p) ~seed:(Seed.fresh pool) ~mesh:true ()
        in
        let heap = Heap.create ~config mem in
        let alloc = Heap.allocator heap in
        let alloc = if opts.traced then wrap_heap hm alloc else alloc in
        let t_run = now () in
        let id = (i * 8) + j in
        let span =
          if opts.traced then begin
            hm.unit_id <- id;
            let name = "driver." ^ p.Profile.name in
            let s = Spans.open_ r.spans ~name ~id ~parent:(-1) ~start:t_run in
            hm.parent <- s;
            s
          end
          else -1
        in
        let heap0 = heap_ns hm in
        let res = Driver.run ~seed:opts.seed p alloc in
        let t_mesh = now () in
        (* One final pass sweeps the epilogue's frees, as bench space does;
           the freed-bytes trigger only sees churn during the run. *)
        ignore (Heap.mesh heap);
        let t_end = now () in
        let f = account r ~t_start ~t_timed:t_run ~t_end in
        Spans.close r.spans span ~stop:t_end;
        sample r (int_of_float (f *. float_of_int (t_end - t_run)));
        driver_ns := !driver_ns + (t_mesh - t_run) - (heap_ns hm - heap0);
        let s = Heap.stats heap in
        let calls =
          s.Stats.mallocs + s.Stats.failed_mallocs + s.Stats.frees + s.Stats.ignored_frees
        in
        r.units <- r.units + calls;
        r.failed <- r.failed + res.Driver.failed_allocations;
        Hashtbl.replace checksums (p.Profile.name, i) (res.Driver.checksum, calls);
        count r "checksum" res.Driver.checksum;
        add_mem_stats r mem;
        add_heap_stats r s;
        count r "heap.meshes" (Heap.meshes heap);
        meshes := !meshes + Heap.meshes heap;
        resident := !resident + Mem.touched_pages mem)
      profiles;
    close_window r;
    r.resident <- float_of_int (!resident * 4) :: r.resident
  in
  drive opts r step;
  (* Correctness, outside the timed section: each replay's checksum must
     equal the same profile and Driver seed on the freelist allocator. *)
  List.iter
    (fun (p : Profile.t) ->
      let fl = Dh_alloc.Freelist.create (Mem.create ()) in
      let want =
        (Driver.run ~seed:opts.seed p (Dh_alloc.Freelist.allocator fl)).Driver.checksum
      in
      Hashtbl.iter
        (fun (name, _) (got, calls) ->
          if name = p.Profile.name && got <> want then r.failed <- r.failed + calls)
        checksums)
    profiles;
  if opts.traced then begin
    heap_layers r hm;
    let rounds = List.length r.resident in
    layer r "heap.meshes" (ratio !meshes rounds);
    mem_layers r ~preimage_ns:(measure_preimage_ns ());
    layer r "driver.self_ns" (cal r *. ratio !driver_ns r.units);
  end;
  []

(* --- replicate ---

   Replicated.run of MiniC espresso-sim, k = 3, replicated mode (random
   heap fill), at [opts.jobs] domains, over a stream of seeds.  Each
   step is one replicated execution, program load (the MiniC parse)
   included in its set-up. *)

(* A window of the execution latencies; its p99 and p99.9 are its
   largest execution. *)
let executions_per_window = 8

type replica = {
  t0 : int;
  t1 : int;
  r_heap_ns : int;
  r_mallocs : int;
  r_malloc_ns : int;
  r_frees : int;
  r_free_ns : int;
  alloc : Allocator.t;
}

let replicate opts r =
  let pool = Seed.create ~master:opts.seed in
  (* One replicated execution; returns its report, the replicas' records
     (replica order), and the run's start and end. *)
  let execute ~traced ~jobs unit_seed =
    let program = Apps.espresso () in
    let lock = Mutex.create () in
    let replicas = ref [] in
    let wrapped =
      Program.make ~name:program.Program.name (fun ctx ->
          let hm = heap_meter None in
          let base = ctx.Program.alloc in
          let ctx =
            if traced then { ctx with Program.alloc = wrap_heap hm base } else ctx
          in
          let t0 = now () in
          Fun.protect
            ~finally:(fun () ->
              let t1 = now () in
              let rep =
                { t0; t1; r_heap_ns = heap_ns hm; r_mallocs = hm.mallocs;
                  r_malloc_ns = hm.malloc_ns; r_frees = hm.frees; r_free_ns = hm.free_ns;
                  alloc = base }
              in
              Mutex.lock lock;
              replicas := rep :: !replicas;
              Mutex.unlock lock)
            (fun () -> program.Program.main ctx))
    in
    let t_call = now () in
    let report =
      Replicated.run ~config:(Config.v ~jobs ()) ~replicas:3
        ~seed_pool:(Seed.create ~master:unit_seed) wrapped
    in
    let t_end = now () in
    (report, List.sort (fun a b -> compare a.t0 b.t0) !replicas, t_call, t_end)
  in
  let outputs = ref [] in
  let interp_ns = ref 0 and nreplicas = ref 0 and voter_ns = ref 0 in
  let replica_ns = ref 0 and run_ns = ref 0 in
  let hm_total = heap_meter None in
  let seeds = ref [] in
  (* Warm-up, untimed: the first run also spawns the pool's workers. *)
  ignore (execute ~traced:false ~jobs:opts.jobs 0x5EED);
  let step i =
    let unit_seed = Seed.fresh pool in
    seeds := unit_seed :: !seeds;
    let t_start = now () in
    let report, replicas, t_call, t_end =
      execute ~traced:opts.traced ~jobs:opts.jobs unit_seed
    in
    let first = List.fold_left (fun acc x -> min acc x.t0) max_int replicas in
    let last = List.fold_left (fun acc x -> max acc x.t1) min_int replicas in
    let f = account r ~t_start ~t_timed:first ~t_end in
    sample r (int_of_float (f *. float_of_int (t_end - first)));
    if (i + 1) mod executions_per_window = 0 then close_window r;
    r.units <- r.units + 1;
    outputs := (report.Replicated.verdict, report.Replicated.output) :: !outputs;
    count r "checksum" (Hashtbl.hash report.Replicated.output);
    let resident = ref 0 in
    List.iter
      (fun x ->
        add_mem_stats r x.alloc.Allocator.mem;
        add_heap_stats r x.alloc.Allocator.stats;
        resident := !resident + Mem.touched_pages x.alloc.Allocator.mem;
        interp_ns := !interp_ns + (x.t1 - x.t0 - x.r_heap_ns);
        replica_ns := !replica_ns + (x.t1 - x.t0);
        incr nreplicas;
        hm_total.mallocs <- hm_total.mallocs + x.r_mallocs;
        hm_total.malloc_ns <- hm_total.malloc_ns + x.r_malloc_ns;
        hm_total.frees <- hm_total.frees + x.r_frees;
        hm_total.free_ns <- hm_total.free_ns + x.r_free_ns)
      replicas;
    r.resident <- float_of_int (!resident * 4) :: r.resident;
    voter_ns := !voter_ns + (t_end - t_call) - (last - first);
    run_ns := !run_ns + (t_end - t_call);
    if opts.traced then begin
      let s = Spans.open_ r.spans ~name:"replicated.run" ~id:i ~parent:(-1) ~start:t_call in
      Spans.close r.spans s ~stop:t_end;
      List.iter
        (fun x -> Spans.add r.spans ~name:"replica" ~id:i ~parent:s ~start:x.t0 ~stop:x.t1)
        replicas
    end
  in
  drive opts r step;
  if r.windows = [] then close_window r;
  (* pool.speedup_j2: the same executions at jobs=1 and at jobs=J,
     untraced, with the worker pool quiesced around each change. *)
  let speedup =
    if not opts.traced then 0.
    else begin
      let again = List.filteri (fun i _ -> i < 3) (List.rev !seeds) in
      let wall jobs =
        Pool.quiesce ();
        List.fold_left
          (fun acc s ->
            let _, _, t_call, t_end = execute ~traced:false ~jobs s in
            acc + (t_end - t_call))
          0 again
      in
      let par = wall opts.jobs in
      let seq = wall 1 in
      ratio seq par
    end
  in
  Pool.quiesce ();
  (* Correctness, outside the timed section: every run agreed, and its
     output equals one stand-alone run of the same program. *)
  let reference = (Replicated.run_program_once (Apps.espresso ())).Process.output in
  List.iter
    (fun (verdict, output) ->
      if not (verdict = Replicated.Agreed && output = reference) then
        r.failed <- r.failed + 1)
    !outputs;
  if opts.traced then begin
    heap_layers r hm_total;
    mem_layers r ~preimage_ns:(measure_preimage_ns ());
    layer r "interp.self_ms" (cal r *. ratio !interp_ns !nreplicas /. 1e6);
    layer r "voter.self_ms" (cal r *. ratio !voter_ns r.units /. 1e6);
    layer r "pool.busy_frac" (ratio !replica_ns (opts.jobs * !run_ns));
    layer r "pool.speedup_j2" speedup;
  end;
  []

(* --- main --- *)

let usage =
  "bench.exe --workload (serve-attack|serve-obs|alloc-mesh|replicate) --seed N \
   --seconds S --trace (0|1) [--quick] [--steps N] [--trace-file FILE]"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let quick = ref false and steps = ref 0 and trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--quick", Arg.Set quick, "small units (determinism test)");
      ("--steps", Arg.Set_int steps, "run exactly N steps instead of --seconds");
      ("--trace-file", Arg.Set_string trace_file, "write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad a))
    usage;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    traced = !trace = 1;
    quick = !quick;
    steps = (if !steps > 0 then Some !steps else None);
    jobs = min 2 (Domain.recommended_domain_count ());
    trace_file = (if !trace_file = "" then None else Some !trace_file);
  }

let () =
  let opts = parse_args () in
  let r = new_run () in
  let extra =
    match opts.workload with
    | "serve-attack" -> serve ~obs:false opts r
    | "serve-obs" -> serve ~obs:true opts r
    | "alloc-mesh" -> alloc_mesh opts r
    | "replicate" -> replicate opts r
    | w ->
      prerr_endline ("unknown workload: " ^ w ^ "\n" ^ usage);
      exit 2
  in
  (* Completed units: a unit with a wrong result is not throughput. *)
  let throughput = float_of_int (r.units - r.failed) /. (Float.max 1. r.timed *. 1e-9) in
  let q pick = median (List.map pick r.windows) /. 1e3 in
  let metrics =
    if opts.traced then
      List.map
        (fun (n, u) -> (n, Option.value (List.assoc_opt n r.layers) ~default:0., u))
        per_layer
    else
      [
        ("throughput", throughput, "1/s");
        ("latency_p50_us", q (fun (p, _, _) -> p), "us");
        ("latency_p99_us", q (fun (_, p, _) -> p), "us");
        ("latency_p999_us", q (fun (_, _, p) -> p), "us");
        ("setup_s", median r.setups, "s");
        ("sim_resident_kib", median r.resident, "KiB");
        ( "host_heap_mib",
          float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
          "MiB" );
        (* Laplace's rule of succession: never 0, and 1/(attempted+2)
           when nothing failed. *)
        ("failed_frac", float_of_int (r.failed + 1) /. float_of_int (r.units + 2), "ratio");
      ]
  in
  Option.iter (Spans.write r.spans) opts.trace_file;
  let extra =
    extra
    @ [
        ("throughput", throughput);
        ("speed_kernel_ns", median !Speed.readings);
        ("raw_throughput", throughput *. r.timed /. float_of_int (max 1 r.raw_ns));
        ("latency_samples", float_of_int r.samples);
        ("latency_windows", float_of_int (List.length r.windows));
        ("setups", float_of_int (List.length r.setups));
      ]
  in
  print_endline
    (json_object
       [
         ("correct", string_of_bool (r.failed = 0));
         ("attempted", string_of_int r.units);
         ("failed", string_of_int r.failed);
         ( "metrics",
           json_object
             (List.map
                (fun (n, v, u) ->
                  ( n,
                    json_object
                      [ ("value", json_float v); ("unit", Printf.sprintf "%S" u) ] ))
                metrics) );
         ( "counts",
           json_object (List.rev_map (fun (n, v) -> (n, string_of_int v)) r.counts) );
         ("extra", json_object (List.map (fun (n, v) -> (n, json_float v)) extra));
         ( "env",
           json_object
             [
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("jobs", string_of_int opts.jobs);
               ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
             ] );
       ])
