(* Differential fuzzing of the allocator zoo.

   Generates random (but well-behaved) allocation workloads — malloc,
   free, realloc, full-object writes and read-back checksums — and runs
   each against every allocator in the repository.  A correct workload
   must produce the SAME checksum everywhere and leave every allocator's
   accounting consistent; any divergence or simulator fault is a bug in
   an allocator, not in the workload.

     dune exec bin/fuzz.exe -- --rounds 200 --ops 400 --seed 1

   This is the repository's standing differential test: the per-module
   suites check behaviours, the fuzzer checks that eight memory
   managers agree on what a well-behaved program computes. *)

open Cmdliner

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Mwc = Dh_rng.Mwc

type op =
  | Alloc of int  (* size *)
  | Free of int  (* index into live list *)
  | Realloc of int * int  (* index, new size *)
  | Touch of int  (* index: write then checksum the object *)

(* A workload is deterministic given its seed: sizes and the op mix are
   drawn first so that every allocator replays the same logical ops. *)
let generate ~rng ~ops =
  List.init ops (fun _ ->
      match Mwc.below rng 10 with
      | 0 | 1 | 2 | 3 -> Alloc (1 + Mwc.below rng 20_000)
      | 4 | 5 -> Free (Mwc.below rng 1_000_000)
      | 6 -> Realloc (Mwc.below rng 1_000_000, 1 + Mwc.below rng 20_000)
      | _ -> Touch (Mwc.below rng 1_000_000))

let mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x45D9F3B land max_int in
  h lxor (h lsr 13)

(* Replay a workload against one allocator; returns a checksum. *)
let replay ops alloc =
  let mem = alloc.Allocator.mem in
  let live = ref [||] in  (* (address, requested size) *)
  let checksum = ref 0 in
  let opno = ref 0 in
  let add1 addr sz = live := Array.append !live [| (addr, sz) |] in
  let remove i =
    let n = Array.length !live in
    let next = Array.make (n - 1) (0, 0) in
    Array.blit !live 0 next 0 i;
    Array.blit !live (i + 1) next i (n - 1 - i);
    live := next
  in
  let touch addr sz =
    let words = max 1 (sz / 8) in
    for w = 0 to words - 1 do
      if (w + 1) * 8 <= sz then Mem.write64 mem (addr + (8 * w)) (mix ((!opno * 31) + w))
    done;
    for w = 0 to words - 1 do
      if (w + 1) * 8 <= sz then
        checksum := (!checksum + (Mem.read64 mem (addr + (8 * w)) land 0xFFFF)) land max_int
    done
  in
  List.iter
    (fun op ->
      incr opno;
      match op with
      | Alloc sz -> (
        match alloc.Allocator.malloc sz with
        | Some addr ->
          add1 addr sz;
          touch addr sz
        | None -> checksum := (!checksum + 7) land max_int)
      | Free i ->
        if Array.length !live > 0 then begin
          let i = i mod Array.length !live in
          let addr, _ = !live.(i) in
          alloc.Allocator.free addr;
          remove i
        end
      | Realloc (i, sz) ->
        if Array.length !live > 0 then begin
          let i = i mod Array.length !live in
          let addr, _ = !live.(i) in
          match Allocator.realloc alloc addr sz with
          | Some fresh ->
            remove i;
            add1 fresh sz;
            touch fresh sz
          | None ->
            (* old object was freed only in the sz=0 case *)
            if sz = 0 then remove i
        end
      | Touch i ->
        if Array.length !live > 0 then begin
          let i = i mod Array.length !live in
          let addr, sz = !live.(i) in
          touch addr sz
        end)
    ops;
  (* epilogue: free everything, then the allocator must report zero live *)
  Array.iter (fun (addr, _) -> alloc.Allocator.free addr) !live;
  (!checksum, alloc.Allocator.stats.Dh_alloc.Stats.live_objects)

let allocators ~seed =
  [
    ("freelist-lea", fun () -> Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())));
    ( "freelist-win",
      fun () ->
        Dh_alloc.Freelist.allocator
          (Dh_alloc.Freelist.create ~variant:Dh_alloc.Freelist.Windows (Mem.create ())) );
    ("gc-bdw", fun () -> Dh_alloc.Gc.allocator (Dh_alloc.Gc.create (Mem.create ())));
    ( "diehard",
      fun () ->
        Diehard.Heap.allocator
          (Diehard.Heap.create
             ~config:(Diehard.Config.v ~heap_size:(48 lsl 20) ~seed ())
             (Mem.create ())) );
    ( "diehard-replicated",
      fun () ->
        Diehard.Heap.allocator
          (Diehard.Heap.create
             ~config:(Diehard.Config.v ~heap_size:(48 lsl 20) ~seed ~replicated:true ())
             (Mem.create ())) );
    ( "diehard-adaptive",
      fun () ->
        Diehard.Heap.allocator
          (Diehard.Heap.create
             ~config:(Diehard.Config.v ~seed ~grow:0 ())
             (Mem.create ())) );
    ( "diehard-adaptive+mesh",
      fun () ->
        Diehard.Heap.allocator
          (Diehard.Heap.create
             ~config:(Diehard.Config.v ~seed ~grow:0 ~mesh:true ~mesh_threshold:4096 ())
             (Mem.create ())) );
    ( "diehard-hybrid",
      fun () ->
        Diehard.Hybrid.allocator
          (Diehard.Hybrid.create
             ~config:(Diehard.Config.v ~heap_size:(48 lsl 20) ~seed ())
             (Mem.create ())) );
  ]

let run_fuzz rounds ops seed0 verbose =
  let failures = ref 0 in
  for round = 1 to rounds do
    let seed = seed0 + round in
    let workload = generate ~rng:(Mwc.create ~seed) ~ops in
    let results =
      List.map
        (fun (name, make) ->
          match replay workload (make ()) with
          | result -> (name, Ok result)
          | exception e -> (name, Error (Printexc.to_string e)))
        (allocators ~seed)
    in
    let checksums =
      List.filter_map
        (fun (name, r) ->
          match r with Ok (sum, _) -> Some (name, sum) | Error _ -> None)
        results
    in
    let distinct = List.sort_uniq compare (List.map snd checksums) in
    let leaks =
      List.filter_map
        (fun (name, r) ->
          match r with
          (* the collector reclaims at collection time, not at free:
             its live count legitimately lags *)
          | Ok (_, live) when live <> 0 && name <> "gc-bdw" -> Some (name, live)
          | Ok _ | Error _ -> None)
        results
    in
    let errors =
      List.filter_map
        (fun (name, r) -> match r with Error e -> Some (name, e) | Ok _ -> None)
        results
    in
    if List.length distinct > 1 || leaks <> [] || errors <> [] then begin
      incr failures;
      Printf.printf "round %d (seed %d): FAIL\n" round seed;
      List.iter (fun (name, e) -> Printf.printf "  %-18s exception: %s\n" name e) errors;
      if List.length distinct > 1 then
        List.iter (fun (name, sum) -> Printf.printf "  %-18s checksum %d\n" name sum) checksums;
      List.iter (fun (name, live) -> Printf.printf "  %-18s leaked %d objects\n" name live) leaks
    end
    else if verbose then
      Printf.printf "round %d (seed %d): ok (checksum %d)\n" round seed
        (match distinct with [ d ] -> d | _ -> 0)
  done;
  if !failures = 0 then begin
    Printf.printf "fuzz: %d rounds x %d ops across %d allocators: all agree\n" rounds ops
      (List.length (allocators ~seed:0));
    0
  end
  else begin
    Printf.printf "fuzz: %d/%d rounds FAILED\n" !failures rounds;
    1
  end

let cmd =
  let rounds =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"N" ~doc:"Workloads to generate.")
  in
  let ops =
    Arg.(value & opt int 300 & info [ "ops" ] ~docv:"N" ~doc:"Operations per workload.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print passing rounds.") in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Differential fuzzing across all allocators")
    Term.(const (fun r o s v -> Stdlib.exit (run_fuzz r o s v)) $ rounds $ ops $ seed $ verbose)

let () = exit (Cmd.eval' cmd)
