(* The benchmark's count metrics are deterministic, and tracing does not
   change the program.

   Each workload runs at a small size (--quick, two steps) with one seed:
   twice untraced and twice traced.  Every work count and checksum, and
   every count-kind metric, must repeat exactly; and the traced runs,
   which wrap the allocator from outside, must count exactly the work of
   the untraced runs.  Later changes may then claim gains on counts. *)

let workloads = [ "serve-attack"; "serve-obs"; "alloc-mesh"; "replicate" ]

let count_metrics ~trace =
  if trace = 0 then [ "sim_resident_kib" ]
  else
    [
      "mem.writes_per_unit"; "mem.reads_per_unit"; "mem.cache_misses_per_unit";
      "mem.preimages_per_unit"; "heap.probes_per_malloc"; "heap.meshes";
      "supervisor.checkpoints"; "supervisor.rewinds"; "supervisor.pages_restored";
      "supervisor.replay_ratio";
    ]

let run workload trace =
  let cmd =
    Printf.sprintf "./bench.exe --workload %s --seed 7 --quick --steps 2 --trace %d"
      workload trace
  in
  let ic = Unix.open_process_in cmd in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> !last
  | _ -> failwith (cmd ^ ": failed")

(* The raw text of [name]'s value in a flat or nested JSON object. *)
let field json name =
  let key = Printf.sprintf "%S: " name in
  let rec find i =
    if i + String.length key > String.length json then failwith ("missing " ^ name)
    else if String.sub json i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start and depth = ref 0 and fin = ref false in
  while not !fin do
    (match json.[!stop] with
    | '{' -> incr depth
    | '}' when !depth = 0 -> fin := true
    | '}' ->
      decr depth;
      if !depth = 0 then begin
        incr stop;
        fin := true
      end
    | ',' when !depth = 0 -> fin := true
    | _ -> ());
    if not !fin then incr stop
  done;
  String.sub json start (!stop - start)

let metric json name = field (field (field json "metrics") name) "value"

let failures = ref 0

let check what a b =
  if a <> b then begin
    incr failures;
    Printf.printf "FAIL %s:\n  %s\n  %s\n%!" what a b
  end

let () =
  List.iter
    (fun w ->
      let runs = List.map (fun trace -> (trace, run w trace, run w trace)) [ 0; 1 ] in
      List.iter
        (fun (trace, a, b) ->
          check (Printf.sprintf "%s trace %d correct" w trace) (field a "correct") "true";
          check (Printf.sprintf "%s trace %d counts repeat" w trace) (field a "counts")
            (field b "counts");
          List.iter
            (fun m ->
              check (Printf.sprintf "%s trace %d %s repeats" w trace m) (metric a m)
                (metric b m))
            (count_metrics ~trace))
        runs;
      match runs with
      | [ (_, plain, _); (_, traced, _) ] ->
        check (w ^ " traced counts = untraced counts") (field plain "counts")
          (field traced "counts")
      | _ -> assert false)
    workloads;
  if !failures > 0 then exit 1;
  print_endline "perfbench: counts deterministic and unchanged by tracing"
