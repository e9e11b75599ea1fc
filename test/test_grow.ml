(* Tests for the growable DieHard heap (§9 future work, [Config.grow]):
   dynamic region growth under the same probabilistic discipline as the
   fixed heap. *)

module Mem = Dh_mem.Mem
module Allocator = Dh_alloc.Allocator
module Stats = Dh_alloc.Stats
module Heap = Diehard.Heap
module Config = Diehard.Config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make ?multiplier ?(grow = 0) ?replicated ?seed ?mesh ?mesh_threshold () =
  let mem = Mem.create () in
  let config = Config.v ?multiplier ~grow ?replicated ?seed ?mesh ?mesh_threshold () in
  let t = Heap.create ~config mem in
  (mem, t, Heap.allocator t)

let test_basic_roundtrip () =
  let mem, _, a = make () in
  check "growable heaps keep the adaptive label" true
    (String.equal a.Allocator.name "diehard-adaptive");
  let p = Allocator.malloc_exn a 100 in
  Mem.write64 mem p 77;
  check_int "usable" 77 (Mem.read64 mem p);
  a.Allocator.free p;
  check_int "freed" 0 a.Allocator.stats.Stats.live_objects

let test_never_exhausts () =
  (* The defining property: no fixed capacity.  Allocate far beyond the
     first region. *)
  let _, t, a = make () in
  for _ = 1 to 10_000 do
    match a.Allocator.malloc 64 with
    | Some _ -> ()
    | None -> Alcotest.fail "a growable heap must grow instead of failing"
  done;
  Heap.check_invariants t;
  check "multiple regions mapped" true (Heap.chain_length t ~class_:3 > 3)

let test_growth_is_geometric () =
  let _, t, a = make () in
  for _ = 1 to 1000 do
    ignore (Allocator.malloc_exn a 64)
  done;
  Heap.check_invariants t;
  let regions = Heap.chain_length t ~class_:3 in
  let capacity = Heap.region_capacity t ~class_:3 in
  (* geometric doubling from one 64-object page: 64 x (2^n - 1) *)
  check_int "each region doubles the last" (64 * ((1 lsl regions) - 1)) capacity;
  check (Printf.sprintf "few regions (%d) for capacity %d" regions capacity) true
    (regions <= 10);
  check "capacity covers 2x live" true (capacity >= 2 * 1000)

let test_invariant_never_above_threshold () =
  let _, t, a = make ~multiplier:2 () in
  for i = 1 to 5000 do
    ignore (Allocator.malloc_exn a 64);
    if i mod 100 = 0 then
      check
        (Printf.sprintf "fullness at %d allocs" i)
        true
        (Heap.region_fullness t ~class_:3 <= 0.5 +. 0.001)
  done

let test_multiplier_4_invariant () =
  let _, t, a = make ~multiplier:4 () in
  for _ = 1 to 2000 do
    ignore (Allocator.malloc_exn a 64)
  done;
  check "quarter full at most" true (Heap.region_fullness t ~class_:3 <= 0.25 +. 0.001)

let test_classes_independent () =
  let _, t, a = make () in
  for _ = 1 to 500 do
    ignore (Allocator.malloc_exn a 64)
  done;
  check_int "untouched class has no regions" 0 (Heap.chain_length t ~class_:0);
  ignore (Allocator.malloc_exn a 8);
  check_int "first use maps one" 1 (Heap.chain_length t ~class_:0)

let test_free_validation () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 64 in
  a.Allocator.free p;
  a.Allocator.free p;  (* double free ignored *)
  a.Allocator.free (p + 4);  (* misaligned ignored *)
  a.Allocator.free 0xABCDEF;  (* wild ignored *)
  check_int "ignored frees" 3 a.Allocator.stats.Stats.ignored_frees

let test_free_across_regions () =
  let _, t, a = make () in
  let ptrs = Array.init 200 (fun _ -> Allocator.malloc_exn a 64) in
  check "grew" true (Heap.chain_length t ~class_:3 > 1);
  Array.iter (fun p -> a.Allocator.free p) ptrs;
  check_int "all frees landed" 200 a.Allocator.stats.Stats.frees;
  check_int "class empty" 0 (Heap.region_in_use t ~class_:3);
  Heap.check_invariants t

let test_find_object () =
  let _, _, a = make () in
  let p = Allocator.malloc_exn a 100 in
  (match a.Allocator.find_object (p + 50) with
  | Some { Allocator.base; size; allocated } ->
    check_int "base" p base;
    check_int "rounded size" 128 size;
    check "allocated" true allocated
  | None -> Alcotest.fail "interior pointer resolves");
  check "owns" true (a.Allocator.owns p)

let test_random_placement () =
  let _, _, a1 = make ~seed:1 () in
  let _, _, a2 = make ~seed:2 () in
  let p1 = List.init 50 (fun _ -> Allocator.malloc_exn a1 64) in
  let p2 = List.init 50 (fun _ -> Allocator.malloc_exn a2 64) in
  check "seeds change layout" false (p1 = p2);
  let _, _, a3 = make ~seed:1 () in
  let p3 = List.init 50 (fun _ -> Allocator.malloc_exn a3 64) in
  check "same seed reproduces" true (p1 = p3)

let test_uniform_across_regions () =
  (* Slots in later (larger) regions must be proportionally more likely:
     allocate many and check the split roughly follows capacities. *)
  let _, t, a = make () in
  (* force growth to 64+128 = 192 capacity, then sample placements *)
  let warm = Array.init 80 (fun _ -> Allocator.malloc_exn a 64) in
  Array.iter (fun p -> a.Allocator.free p) warm;
  check_int "two regions" 2 (Heap.chain_length t ~class_:3);
  let in_first = ref 0 in
  let total = 1000 in
  let bases =
    List.init total (fun _ ->
        let p = Allocator.malloc_exn a 64 in
        a.Allocator.free p;
        p)
  in
  (* the first (smaller, 64-slot) region has capacity share 1/3 *)
  let min_base = List.fold_left min max_int bases in
  List.iter (fun p -> if p < min_base + (64 * 64) then incr in_first) bases;
  let share = float_of_int !in_first /. float_of_int total in
  check (Printf.sprintf "first-region share %.2f near 1/3" share) true
    (share > 0.23 && share < 0.43)

let test_large_objects () =
  let mem, _, a = make () in
  let p = Allocator.malloc_exn a 50_000 in
  Mem.write8 mem p 1;
  (match Mem.read8 mem (p - 1) with
  | exception Dh_mem.Fault.Error _ -> ()
  | _ -> Alcotest.fail "guard page expected");
  a.Allocator.free p;
  a.Allocator.free p;
  check_int "large double free ignored" 1 a.Allocator.stats.Stats.ignored_frees

let test_replicated_fill () =
  let mem, t, a = make ~replicated:true () in
  let p = Allocator.malloc_exn a 64 in
  check "random filled" false
    (String.equal (Mem.read_bytes mem ~addr:p ~len:64) (String.make 64 '\000'));
  (* every grown region is filled when it is mapped, not just objects:
     the never-allocated slots of a later region hold random bytes too *)
  let ptrs = p :: List.init 100 (fun _ -> Allocator.malloc_exn a 64) in
  let base, len = Option.get (Mem.segment_of mem (List.fold_left max p ptrs)) in
  check "a grown region" true (Heap.region_base t ~class_:3 <> Some base);
  let untouched =
    List.init (len / 64) (fun i -> base + (64 * i))
    |> List.filter (fun s -> not (List.mem s ptrs))
  in
  check "has untouched slots" true (untouched <> []);
  check "untouched slots random filled" true
    (List.for_all
       (fun s -> Mem.read_bytes mem ~addr:s ~len:64 <> String.make 64 '\000')
       untouched)

let test_mapped_tracks_live_not_worst_case () =
  (* The point of growth: footprint follows use.  A workload with a tiny
     live set must map far less than a paper-default fixed heap. *)
  let mem, _, a = make () in
  for _ = 1 to 1000 do
    let p = Allocator.malloc_exn a 64 in
    a.Allocator.free p
  done;
  check
    (Printf.sprintf "mapped %d bytes stays small" (Mem.mapped_bytes mem))
    true
    (Mem.mapped_bytes mem < 1 lsl 20)

let test_headroom_keeps_free_slots () =
  let free_slots t = Heap.region_capacity t ~class_:3 - Heap.region_in_use t ~class_:3 in
  let _, protected_, pa = make ~grow:4096 () in
  let _, tight, a = make () in
  for _ = 1 to 100 do
    ignore (Allocator.malloc_exn pa 64);
    ignore (Allocator.malloc_exn a 64)
  done;
  Heap.check_invariants protected_;
  check
    (Printf.sprintf "headroom maintained (%d free)" (free_slots protected_))
    true
    (free_slots protected_ >= 4096);
  check
    (Printf.sprintf "the tight heap keeps far less (%d free)" (free_slots tight))
    true
    (free_slots tight < 4096)

let test_headroom_restores_dangling_protection () =
  (* Theorem 2 with the class's actual free slots: the tight heap reuses
     a freed slot quickly, the headroom heap almost never. *)
  let reuse_rate grow =
    let reused = ref 0 in
    for seed = 1 to 50 do
      let _, _, alloc = make ~grow ~seed () in
      (* realistic live load *)
      for _ = 1 to 50 do
        ignore (Allocator.malloc_exn alloc 64)
      done;
      let victim = Allocator.malloc_exn alloc 64 in
      alloc.Allocator.free victim;
      let hit = ref false in
      for _ = 1 to 10 do
        if Allocator.malloc_exn alloc 64 = victim then hit := true
      done;
      if !hit then incr reused
    done;
    !reused
  in
  let tight = reuse_rate 0 in
  let roomy = reuse_rate 8192 in
  check
    (Printf.sprintf "tight reuses often (%d/50), roomy rarely (%d/50)" tight roomy)
    true
    (tight > 2 && roomy <= 1)

let espresso_checksum factor =
  let profile =
    match Dh_workload.Profile.find "espresso" with
    | Some p -> Dh_workload.Profile.scale p ~factor
    | None -> Alcotest.fail "espresso profile missing"
  in
  let fl = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
  (profile, (Dh_workload.Driver.run ~seed:3 profile fl).Dh_workload.Driver.checksum)

let test_workload_compatibility () =
  (* A growable heap is a drop-in allocator: the synthetic driver must
     produce the same checksum as under every other allocator. *)
  let profile, expected = espresso_checksum 0.05 in
  let _, _, a = make () in
  let r = Dh_workload.Driver.run ~seed:3 profile a in
  check_int "checksum matches" expected r.Dh_workload.Driver.checksum;
  check_int "no failures" 0 r.Dh_workload.Driver.failed_allocations

let test_minic_compatibility () =
  let _, _, a = make ~seed:5 () in
  let r = Dh_alloc.Program.run (Dh_workload.Apps.espresso ()) a in
  check "espresso-sim runs" true (r.Dh_mem.Process.outcome = Dh_mem.Process.Exited 0)

let test_mesh_over_grown_chains () =
  (* Growth and meshing compose: the mesher pairs pages inside each
     region of a chain, and the program cannot tell. *)
  let profile, expected = espresso_checksum 0.2 in
  let _, t, a = make ~mesh:true ~mesh_threshold:4096 () in
  let r = Dh_workload.Driver.run ~seed:3 profile a in
  Heap.check_invariants t;
  check_int "checksum matches freelist" expected r.Dh_workload.Driver.checksum;
  check_int "no failures" 0 r.Dh_workload.Driver.failed_allocations;
  check (Printf.sprintf "meshed (%d)" (Heap.meshes t)) true (Heap.meshes t > 0)

let test_rewind_across_growth () =
  let mem, t, a = make ~seed:9 () in
  let live = List.init 20 (fun _ -> Allocator.malloc_exn a 64) in
  let freed = List.filteri (fun i _ -> i mod 3 = 0) live in
  List.iter a.Allocator.free freed;
  let live = List.filter (fun p -> not (List.mem p freed)) live in
  let capacity = Heap.region_capacity t ~class_:3 in
  let in_use = Heap.region_in_use t ~class_:3 in
  let chain = Heap.chain_length t ~class_:3 in
  let mapped = Mem.mapped_bytes mem in
  Mem.checkpoint mem;
  let snap = Heap.snapshot t in
  (* allocate until an object lands in a region grown in the window *)
  let window () =
    let rec go acc =
      let p = Allocator.malloc_exn a 64 in
      match Heap.slot_of_addr t p with
      | Some (_, slot) when slot >= capacity -> (p, List.rev (p :: acc))
      | Some _ | None -> go (p :: acc)
    in
    go []
  in
  let newest, first = window () in
  Heap.check_invariants t;
  check "the window grew the class" true (Heap.chain_length t ~class_:3 > chain);
  ignore (Mem.rewind mem);
  Heap.restore t snap;
  Heap.check_invariants t;
  check_int "capacity restored" capacity (Heap.region_capacity t ~class_:3);
  check_int "in use restored" in_use (Heap.region_in_use t ~class_:3);
  check_int "chain restored" chain (Heap.chain_length t ~class_:3);
  check_int "mapped bytes restored" mapped (Mem.mapped_bytes mem);
  (* with in_use and the bitmap cardinality (check_invariants) both back,
     the bitmap is exactly the pre-checkpoint live set *)
  let allocated p =
    match a.Allocator.find_object p with Some o -> o.Allocator.allocated | None -> false
  in
  check "pre-checkpoint objects live" true (List.for_all allocated live);
  check "pre-checkpoint frees stay free" false (List.exists allocated freed);
  check "the dropped region is unknown" true (a.Allocator.find_object newest = None);
  check "and unowned" false (a.Allocator.owns newest);
  Alcotest.(check (list int)) "the replay lands where the first pass did" first
    (snd (window ()))

let prop_accounting_consistent =
  QCheck.Test.make ~name:"adaptive: random ops keep totals = sum of miniheaps" ~count:40
    QCheck.(pair small_int (list (pair (int_bound 300) bool)))
    (fun (seed, ops) ->
      let _, t, a = make ~seed:(seed + 1) () in
      let live = ref [] in
      List.iter
        (fun (sz, do_free) ->
          (if do_free && !live <> [] then begin
             match !live with
             | p :: rest ->
               a.Allocator.free p;
               live := rest
             | [] -> ()
           end
           else
             match a.Allocator.malloc (1 + sz) with
             | Some p -> live := p :: !live
             | None -> ());
          Heap.check_invariants t)
        ops;
      let total_in_use =
        List.fold_left
          (fun acc class_ -> acc + Heap.region_in_use t ~class_)
          0
          (List.init Dh_alloc.Size_class.count Fun.id)
      in
      total_in_use = a.Allocator.stats.Stats.live_objects
      && List.for_all
           (fun p ->
             match a.Allocator.find_object p with
             | Some { Allocator.base; allocated; _ } -> allocated && base = p
             | None -> false)
           !live)

let suite =
  [
    Alcotest.test_case "basic roundtrip" `Quick test_basic_roundtrip;
    Alcotest.test_case "never exhausts" `Quick test_never_exhausts;
    Alcotest.test_case "geometric growth" `Quick test_growth_is_geometric;
    Alcotest.test_case "threshold invariant" `Quick test_invariant_never_above_threshold;
    Alcotest.test_case "M=4 invariant" `Quick test_multiplier_4_invariant;
    Alcotest.test_case "classes independent" `Quick test_classes_independent;
    Alcotest.test_case "free validation" `Quick test_free_validation;
    Alcotest.test_case "free across miniheaps" `Quick test_free_across_regions;
    Alcotest.test_case "find_object" `Quick test_find_object;
    Alcotest.test_case "random placement" `Quick test_random_placement;
    Alcotest.test_case "uniform across miniheaps" `Quick test_uniform_across_regions;
    Alcotest.test_case "large objects" `Quick test_large_objects;
    Alcotest.test_case "replicated fill" `Quick test_replicated_fill;
    Alcotest.test_case "footprint tracks live" `Quick test_mapped_tracks_live_not_worst_case;
    Alcotest.test_case "min_headroom free slots" `Quick test_headroom_keeps_free_slots;
    Alcotest.test_case "headroom protection" `Quick test_headroom_restores_dangling_protection;
    Alcotest.test_case "workload compatibility" `Quick test_workload_compatibility;
    Alcotest.test_case "MiniC compatibility" `Quick test_minic_compatibility;
    Alcotest.test_case "mesh over grown chains" `Quick test_mesh_over_grown_chains;
    Alcotest.test_case "rewind across growth" `Quick test_rewind_across_growth;
    QCheck_alcotest.to_alcotest prop_accounting_consistent;
  ]
