(* §7.3.1 fault injection on espresso-sim: the paper's two experiments.

   1. Dangling pointers at 50% frequency, distance 10: "this high error
      rate prevents espresso from running to completion with the default
      allocator in all runs.  However, with DieHard, espresso runs
      correctly in 9 out of 10 runs."
   2. Buffer overflows at 1% on allocations of >= 32 bytes,
      under-allocated by 4 bytes: "with the default allocator, espresso
      crashes in 9 out of 10 runs and enters an infinite loop in the
      tenth.  With DieHard, it runs successfully in all 10 of 10 runs." *)

module Campaign = Dh_fault.Campaign
module Injector = Dh_fault.Injector

let campaign ~label ~spec ~trials =
  Report.subheading label;
  let run_on name make_alloc =
    match Campaign.run ~trials ~spec ~make_alloc (Dh_workload.Apps.espresso ()) with
    | Ok tally -> [ name; Format.asprintf "%a" Campaign.pp_tally tally ]
    | Error e -> [ name; "skipped: " ^ Campaign.error_to_string e ]
  in
  let rows =
    [
      run_on "default malloc" (fun ~trial ->
          ignore trial;
          Factory.freelist ());
      run_on "DieHard" (fun ~trial -> Factory.diehard ~seed:(trial + 11) ());
      (* The §9 adaptive variant, tightly grown: its free pool Q is only
         (M-1) x live, so Theorem 2's guarantee is far weaker — the
         space-reliability trade-off made visible. *)
      run_on "adaptive (tight)" (fun ~trial ->
          Factory.diehard ~grow:0 ~seed:(trial + 11) ());
      (* ...and with 64K free slots of headroom per class, matching the
         fixed heap's Q, the protection comes back. *)
      run_on "adaptive (64K headroom)" (fun ~trial ->
          Factory.diehard ~grow:65536 ~seed:(trial + 11) ());
    ]
  in
  Report.table ~header:[ "allocator"; "outcomes" ] rows;
  Report.note
    "Theorem 2's masking scales with the class's FREE slots Q: the tight adaptive";
  Report.note
    "heap keeps Q ~ live size and loses the guarantee; buying Q back with";
  Report.note "headroom is exactly the paper's 4.5 space-reliability trade-off"

let run ~quick () =
  let trials = if quick then 5 else 10 in
  Report.heading "Section 7.3.1: fault injection on espresso-sim";
  campaign
    ~label:
      (Printf.sprintf "dangling pointers: 50%% of freed objects freed 10 allocations early (%d runs)"
         trials)
    ~spec:Injector.paper_dangling ~trials;
  campaign
    ~label:
      (Printf.sprintf
         "buffer overflows: 1%% of allocations >= 32B under-allocated by 4B (%d runs)" trials)
    ~spec:Injector.paper_overflow ~trials
