(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index and
   EXPERIMENTS.md for paper-vs-measured commentary).

     dune exec bench/main.exe            # everything, full settings
     dune exec bench/main.exe -- quick   # everything, reduced trials
     dune exec bench/main.exe -- fig4a fig5a table1 ...   # any subset
     dune exec bench/main.exe -- gate [quick] [--trace PATH]  # the gates *)

let experiments ~quick ~trace =
  [
    ( "fig4a",
      fun () ->
        Fig4.figure_4a ~trials:(if quick then 60 else 300);
        Fig4.overflow_length_sweep ~trials:(if quick then 60 else 300) );
    ("fig4b", fun () -> Fig4.figure_4b ~trials:(if quick then 20 else 100));
    ( "fig5a",
      fun () ->
        Fig5.figure_5a ~runs:(if quick then 1 else 3)
          ~factor:(if quick then 0.2 else 1.0) );
    ( "fig5b",
      fun () ->
        Fig5.figure_5b ~runs:(if quick then 1 else 3)
          ~factor:(if quick then 0.2 else 1.0) );
    ("micro", fun () -> Fig5.microbench ());
    ("table1", fun () -> Table1.run ~quick ());
    ("inject", fun () -> Inject.run ~quick ());
    ("survivor", fun () -> Survivor.run ~quick ());
    ("squid", fun () -> Squid_bench.run ~quick ());
    ("replicas", fun () -> Replicas.run ~quick ());
    ("probes", fun () -> Probes.run ~quick ());
    ("space", fun () -> Space.run ~quick ());
    ("serve", fun () -> Serve.run ~quick ());
    ("ablate", fun () -> Ablate.run ~quick ());
    ("audit", fun () -> Audit.run ~quick ());
    ("gate", fun () -> Gate.run ~quick ~trace ());
  ]

let () =
  let rec split_trace = function
    | "--trace" :: path :: rest -> (Some path, rest)
    | a :: rest -> let t, rest = split_trace rest in (t, a :: rest)
    | [] -> (None, [])
  in
  let trace, args = split_trace (List.tl (Array.to_list Sys.argv)) in
  let quick = List.mem "quick" args in
  if List.mem "csv" args then Report.format := Report.Csv;
  let selected = List.filter (fun a -> a <> "quick" && a <> "csv") args in
  let experiments = experiments ~quick ~trace in
  let to_run =
    (* The gate can exit non-zero; it only runs when named explicitly. *)
    if selected = [] then List.filter (fun (n, _) -> n <> "gate") experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        selected
  in
  Printf.printf
    "DieHard reproduction benchmarks%s -- one section per paper table/figure\n"
    (if quick then " (quick mode)" else "");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "  [%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    to_run;
  Printf.printf "\nAll benchmarks complete in %.1fs.\n" (Unix.gettimeofday () -. t0)
