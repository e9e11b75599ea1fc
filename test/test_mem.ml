(* Tests for the simulated address space: mapping, protection, faulting
   accesses, and the simulated-process outcome classification. *)

open Dh_mem

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let expect_fault f =
  match f () with
  | exception Fault.Error _ -> ()
  | _ -> Alcotest.fail "expected a memory fault"

(* --- mapping --- *)

let test_mmap_returns_aligned_base () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 100 in
  check_int "page aligned" 0 (a mod Mem.page_size);
  check "nonzero (not NULL)" true (a <> 0)

let test_mmap_rounds_to_pages () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 1 in
  (* The whole first page must be accessible... *)
  Mem.write8 mem (a + Mem.page_size - 1) 0xAB;
  check_int "last byte of page" 0xAB (Mem.read8 mem (a + Mem.page_size - 1));
  (* ...and the byte after it must not be. *)
  expect_fault (fun () -> Mem.read8 mem (a + Mem.page_size))

let test_segments_disjoint () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 and b = Mem.mmap mem 8192 in
  check "segments do not overlap" true (b >= a + 8192 || a >= b + 8192)

let test_hole_between_segments () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let _b = Mem.mmap mem 4096 in
  (* Running one byte off the end of [a] must fault, not land in [b]. *)
  expect_fault (fun () -> Mem.write8 mem (a + 4096) 1)

let test_munmap () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 5;
  Mem.munmap mem a;
  expect_fault (fun () -> Mem.read8 mem a);
  check "no longer mapped" false (Mem.is_mapped mem a)

let test_munmap_bad_base () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 in
  expect_fault (fun () -> Mem.munmap mem (a + 4096))

let test_null_never_mapped () =
  let mem = Mem.create () in
  ignore (Mem.mmap mem 4096);
  check "NULL unmapped" false (Mem.is_mapped mem 0);
  expect_fault (fun () -> Mem.read8 mem 0)

let test_segment_of () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 8192 in
  (match Mem.segment_of mem (a + 5000) with
  | Some (base, len) ->
    check_int "segment base" a base;
    check_int "segment len" 8192 len
  | None -> Alcotest.fail "address should be mapped");
  check "outside" true (Mem.segment_of mem (a + 8192) = None)

let test_mapped_bytes () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  ignore (Mem.mmap mem 8192);
  check_int "mapped bytes" (4096 + 8192) (Mem.mapped_bytes mem);
  Mem.munmap mem a;
  check_int "after munmap" 8192 (Mem.mapped_bytes mem)

(* --- protection --- *)

let test_guard_page_faults () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (3 * 4096) in
  Mem.protect mem ~addr:a ~len:4096 Mem.No_access;
  expect_fault (fun () -> Mem.read8 mem a);
  expect_fault (fun () -> Mem.write8 mem (a + 100) 1);
  (* the page after the guard is fine *)
  Mem.write8 mem (a + 4096) 1;
  check_int "adjacent page ok" 1 (Mem.read8 mem (a + 4096))

let test_read_only () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 42;
  Mem.protect mem ~addr:a ~len:4096 Mem.Read_only;
  check_int "reads allowed" 42 (Mem.read8 mem a);
  expect_fault (fun () -> Mem.write8 mem a 1)

let test_word_access_across_guard_faults () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * 4096) in
  Mem.protect mem ~addr:(a + 4096) ~len:4096 Mem.No_access;
  (* A word write straddling the guard boundary must fault. *)
  expect_fault (fun () -> Mem.write64 mem (a + 4096 - 4) 0xDEADBEEF)

(* --- access --- *)

let test_byte_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  for i = 0 to 255 do
    Mem.write8 mem (a + i) i
  done;
  for i = 0 to 255 do
    check_int "byte roundtrip" i (Mem.read8 mem (a + i))
  done

let test_byte_truncation () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 0x1FF;
  check_int "write8 truncates to 8 bits" 0xFF (Mem.read8 mem a)

let test_word_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let values = [ 0; 1; 0xDEADBEEF; max_int; min_int; -1; 0x0123456789ABCDE ] in
  List.iteri
    (fun i v ->
      Mem.write64 mem (a + (8 * i)) v;
      check_int "word roundtrip" v (Mem.read64 mem (a + (8 * i))))
    values

let test_word_little_endian () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write64 mem a 0x0102030405060708;
  check_int "LSB first" 0x08 (Mem.read8 mem a);
  check_int "MSB last" 0x01 (Mem.read8 mem (a + 7))

let test_unaligned_word () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write64 mem (a + 3) 0x1122334455667788;
  check_int "unaligned roundtrip" 0x1122334455667788 (Mem.read64 mem (a + 3))

let test_fresh_memory_zeroed () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  check_int "zero filled" 0 (Mem.read64 mem a);
  check_int "zero filled end" 0 (Mem.read8 mem (a + 4095))

let test_bytes_roundtrip () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write_bytes mem ~addr:a "hello, heap";
  check_string "string roundtrip" "hello, heap" (Mem.read_bytes mem ~addr:a ~len:11)

let test_fill () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.fill mem ~addr:a ~len:16 'x';
  check_string "filled" (String.make 16 'x') (Mem.read_bytes mem ~addr:a ~len:16)

let test_fill_random_differs_by_seed () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 and b = Mem.mmap mem 4096 in
  Mem.fill_random mem ~addr:a ~len:256 (Dh_rng.Mwc.create ~seed:1);
  Mem.fill_random mem ~addr:b ~len:256 (Dh_rng.Mwc.create ~seed:2);
  check "different random fills" false
    (String.equal (Mem.read_bytes mem ~addr:a ~len:256) (Mem.read_bytes mem ~addr:b ~len:256))

let test_cstring () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write_bytes mem ~addr:a "abc\000def";
  check_string "stops at NUL" "abc" (Mem.cstring mem a)

let test_stats_counting () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  let s0 = Mem.stats mem in
  Mem.write8 mem a 1;
  ignore (Mem.read8 mem a);
  ignore (Mem.read64 mem a);
  let s1 = Mem.stats mem in
  check_int "writes counted" 1 (s1.Mem.writes - s0.Mem.writes);
  check_int "reads counted" 2 (s1.Mem.reads - s0.Mem.reads);
  check_int "mmaps counted" 1 s1.Mem.mmaps

let test_touched_pages () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (4 * 4096) in
  check_int "nothing touched" 0 (Mem.touched_pages mem);
  Mem.write8 mem a 1;
  Mem.write8 mem (a + 1) 1;
  check_int "one page" 1 (Mem.touched_pages mem);
  Mem.write8 mem (a + (3 * 4096)) 1;
  check_int "two pages" 2 (Mem.touched_pages mem)

(* --- process --- *)

let test_process_exit () =
  let r = Process.run (fun out -> Process.Out.print_string out "done") in
  check "exited" true (r.Process.outcome = Process.Exited 0);
  check_string "output captured" "done" r.Process.output

let test_process_exit_code () =
  let r =
    Process.run (fun out ->
        Process.Out.print_string out "partial";
        raise (Process.Exit_program 3))
  in
  check "exit code" true (r.Process.outcome = Process.Exited 3);
  check_string "output kept" "partial" r.Process.output

let test_process_crash () =
  let mem = Mem.create () in
  let r =
    Process.run (fun out ->
        Process.Out.print_string out "before";
        ignore (Mem.read8 mem 0x999999);
        Process.Out.print_string out "after")
  in
  (match r.Process.outcome with
  | Process.Crashed (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "expected a crash");
  check_string "output up to the crash" "before" r.Process.output

let test_process_abort () =
  let r = Process.run (fun _ -> raise (Process.Abort "bounds")) in
  check "aborted" true (r.Process.outcome = Process.Aborted "bounds")

let test_process_timeout () =
  let r =
    Process.run (fun _ ->
        let fuel = Process.Fuel.create ~budget:100 in
        while true do
          Process.Fuel.burn fuel
        done)
  in
  check "timeout" true (r.Process.outcome = Process.Timeout)

let test_fuel_accounting () =
  let fuel = Process.Fuel.create ~budget:3 in
  Process.Fuel.burn fuel;
  Process.Fuel.burn fuel;
  check "one left" true (Process.Fuel.remaining fuel = Some 1);
  Process.Fuel.burn fuel;
  Alcotest.check_raises "exhausted" Process.Out_of_fuel (fun () -> Process.Fuel.burn fuel)

let test_fuel_unlimited () =
  let fuel = Process.Fuel.unlimited () in
  for _ = 1 to 1000 do
    Process.Fuel.burn fuel
  done;
  check "no cap" true (Process.Fuel.remaining fuel = None)

(* --- qcheck properties --- *)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"write64/read64 roundtrip at any offset" ~count:300
    QCheck.(pair int (int_bound 4080))
    (fun (v, off) ->
      let mem = Mem.create () in
      let a = Mem.mmap mem 4096 in
      Mem.write64 mem (a + off) v;
      Mem.read64 mem (a + off) = v)

let prop_disjoint_writes_do_not_interfere =
  QCheck.Test.make ~name:"byte writes to distinct addresses are independent" ~count:200
    QCheck.(triple (int_bound 4000) (int_bound 4000) (pair (int_bound 255) (int_bound 255)))
    (fun (i, j, (x, y)) ->
      QCheck.assume (i <> j);
      let mem = Mem.create () in
      let a = Mem.mmap mem 4096 in
      Mem.write8 mem (a + i) x;
      Mem.write8 mem (a + j) y;
      Mem.read8 mem (a + i) = x && Mem.read8 mem (a + j) = y)


(* --- the scalar fast path's invalidation ---

   A scalar access that hits the cached segment and finds its page-state
   word already permissive skips every check.  Each test below breaks if
   the operation it names stops resetting the cache or the word. *)

let fault_of f =
  match f () with
  | exception Fault.Error fault -> Some fault
  | _ -> None

let unmapped addr access = Some (Fault.Unmapped { addr; access })
let protection addr access = Some (Fault.Protection { addr; access })

let test_munmap_drops_cached_segment () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * 4096) in
  Mem.write8 mem (a + 10) 1;
  Mem.write64 mem (a + 16) 2;
  (* both pages dirty, the segment cached: the next stores would be fast *)
  Mem.munmap mem a;
  check "write8 faults at its byte" true
    (fault_of (fun () -> Mem.write8 mem (a + 10) 3) = unmapped (a + 10) Fault.Write);
  check "write64 faults at its first byte" true
    (fault_of (fun () -> Mem.write64 mem (a + 16) 4) = unmapped (a + 16) Fault.Write);
  check "read8 faults" true
    (fault_of (fun () -> Mem.read8 mem (a + 10)) = unmapped (a + 10) Fault.Read)

let test_protect_dirty_page () =
  let mem = Mem.create () in
  let a = Mem.mmap mem 4096 in
  Mem.write8 mem a 1;
  Mem.write64 mem (a + 8) 2;
  Mem.protect mem ~addr:a ~len:4096 Mem.Read_only;
  check "write8 to the dirty page now faults" true
    (fault_of (fun () -> Mem.write8 mem a 3) = protection a Fault.Write);
  check "write64 too" true
    (fault_of (fun () -> Mem.write64 mem (a + 8) 3) = protection (a + 8) Fault.Write);
  check_int "reads still allowed" 1 (Mem.read8 mem a);
  Mem.protect mem ~addr:a ~len:4096 Mem.No_access;
  check "No_access: read8 faults" true
    (fault_of (fun () -> Mem.read8 mem a) = protection a Fault.Read);
  check "No_access: read64 faults" true
    (fault_of (fun () -> Mem.read64 mem (a + 8)) = protection (a + 8) Fault.Read);
  Mem.protect mem ~addr:a ~len:4096 Mem.Read_write;
  Mem.write8 mem a 5;
  check_int "writable again" 5 (Mem.read8 mem a)

let test_alias_through_cache () =
  let mem = Mem.create () in
  let a = Mem.mmap mem (2 * 4096) in
  let other = Mem.mmap mem 4096 in
  let src = a and dst = a + 4096 in
  Mem.write8 mem (dst + 5) 0x11;
  check_int "dst cached and dirty" 0x11 (Mem.read8 mem (dst + 5));
  Mem.alias mem ~src ~dst ~live:[ (5, 1) ];
  Mem.write8 mem (dst + 9) 0x22;
  check_int "write8 via dst lands on the shared page" 0x22 (Mem.read8 mem (src + 9));
  check_int "and reads back via dst" 0x22 (Mem.read8 mem (dst + 9));
  Mem.write8 mem (src + 9) 0x33;
  check_int "dst sees src's store" 0x33 (Mem.read8 mem (dst + 9));
  (* A miss on another segment, then back: the meshed segment must not
     re-enter the cache. *)
  ignore (Mem.read8 mem other);
  ignore (Mem.read8 mem (src + 9));
  Mem.write64 mem (src + 16) 0x4444;
  check_int "read64 via dst after a cache miss" 0x4444 (Mem.read64 mem (dst + 16));
  check_int "merged live byte" 0x11 (Mem.read8 mem (src + 5));
  (* A word across the boundary into the meshed page: its high half lands
     on the shared backing page, at the start of [src]. *)
  Mem.write64 mem (dst - 4) 0x0807060504030201;
  check_int "a word across the meshed boundary reads back" 0x0807060504030201
    (Mem.read64 mem (dst - 4));
  check_int "its high half is on the shared page" 0x05 (Mem.read8 mem src)

(* --- qcheck: scalar accesses against their bulk twins ---

   Two address spaces receive the same random mmap / munmap / protect /
   bulk / checkpoint / rewind / alias sequence; each scalar access runs as
   read8/write8/read64/write64 on one and as the equal read_bytes /
   write_bytes on the other.  Results, exact faults, TLB and cache miss
   deltas, touched, dirty and pre-imaged pages must agree, and
   [check_invariants] must hold on both after every op. *)

type op =
  | Map of int  (* pages *)
  | Unmap of int  (* which segment ever mapped *)
  | Protect of int * int * int  (* segment, page, protection *)
  | Scalar of int * int * int * int  (* kind, segment, offset, value *)
  | Bulk of bool * int * int * int  (* store?, segment, offset, length *)
  | Checkpoint
  | Rewind
  | Alias of int * int * int * bool  (* segment, src page, dst page, merge? *)

let show_op = function
  | Map n -> Printf.sprintf "Map %d" n
  | Unmap s -> Printf.sprintf "Unmap %d" s
  | Protect (s, p, k) -> Printf.sprintf "Protect (%d,%d,%d)" s p k
  | Scalar (k, s, o, v) -> Printf.sprintf "Scalar (%d,%d,%d,%d)" k s o v
  | Bulk (w, s, o, l) -> Printf.sprintf "Bulk (%b,%d,%d,%d)" w s o l
  | Checkpoint -> "Checkpoint"
  | Rewind -> "Rewind"
  | Alias (s, a, b, m) -> Printf.sprintf "Alias (%d,%d,%d,%b)" s a b m

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun n -> Map (1 + n)) (int_bound 3));
        (1, map (fun s -> Unmap s) nat);
        (2, map3 (fun s p k -> Protect (s, p, k)) nat (int_bound 3) (int_bound 2));
        (12, map2 (fun (k, s) (o, v) -> Scalar (k, s, o, v)) (pair (int_bound 3) nat) (pair nat int));
        (3, map2 (fun (w, s) (o, l) -> Bulk (w, s, o, l)) (pair bool nat) (pair nat (int_bound 5000)));
        (2, return Checkpoint);
        (2, return Rewind);
        (1, map2 (fun (s, a) (b, m) -> Alias (s, a, b, m)) (pair nat (int_bound 3)) (pair (int_bound 3) bool));
      ])

let prop_scalar_matches_bulk =
  QCheck.Test.make ~name:"scalar accesses match bulk twins; invariants hold" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_op) QCheck.Gen.(list_size (int_range 1 80) gen_op))
    (fun ops ->
      let m1 = Mem.create () and m2 = Mem.create () in
      let segs = ref [||] in
      let pick s = if !segs = [||] then None else Some !segs.(s mod Array.length !segs) in
      let both f =
        let r1 = try Ok (f m1) with Fault.Error e -> Error (Some e) | Invalid_argument _ -> Error None in
        let r2 = try Ok (f m2) with Fault.Error e -> Error (Some e) | Invalid_argument _ -> Error None in
        if r1 <> r2 then QCheck.Test.fail_report "the twins diverged on a shared op"
      in
      let scalar ~kind base off v =
        let addr = base + off in
        let n = if kind < 2 then 1 else 8 in
        let s1 = Mem.stats m1 and s2 = Mem.stats m2 in
        let attempt f = try Ok (f ()) with Fault.Error e -> Error e in
        let r1 =
          attempt (fun () ->
              match kind with
              | 0 -> Mem.read8 m1 addr
              | 1 -> Mem.write8 m1 addr v; 0
              | 2 -> Mem.read64 m1 addr
              | _ -> Mem.write64 m1 addr v; 0)
        in
        let r2 =
          attempt (fun () ->
              let b = Bytes.create 8 in
              Bytes.set_int64_le b 0 (Int64.of_int v);
              if kind land 1 = 1 then begin
                Mem.write_bytes m2 ~addr (Bytes.sub_string b 0 n);
                0
              end
              else
                let s = Mem.read_bytes m2 ~addr ~len:n in
                if n = 1 then Char.code s.[0]
                else Int64.to_int (String.get_int64_le s 0))
        in
        let e1 = Mem.stats m1 and e2 = Mem.stats m2 in
        let misses (a : Mem.stats) (b : Mem.stats) =
          (b.tlb_misses - a.tlb_misses, b.cache_misses - a.cache_misses)
        in
        let ops (a : Mem.stats) (b : Mem.stats) = (b.reads - a.reads, b.writes - a.writes) in
        let ops_agree =
          match r1 with
          | Ok _ ->
            (* A scalar access counts one operation, a bulk one its bytes. *)
            let r, w = ops s1 e1 in
            ops s2 e2 = (n * r, n * w)
          | Error _ -> ops s2 e2 = (0, 0) && fst (ops s1 e1) + snd (ops s1 e1) = 1
        in
        if r1 <> r2 then QCheck.Test.fail_reportf "0x%x kind %d: results differ" addr kind;
        if misses s1 e1 <> misses s2 e2 then
          QCheck.Test.fail_reportf "0x%x kind %d: miss deltas differ" addr kind;
        if not ops_agree then QCheck.Test.fail_reportf "0x%x kind %d: op counts differ" addr kind
      in
      List.iter
        (fun op ->
          (match op with
          | Map pages ->
            let b1 = Mem.mmap m1 (pages * 4096) and b2 = Mem.mmap m2 (pages * 4096) in
            if b1 <> b2 then QCheck.Test.fail_report "bases differ";
            segs := Array.append !segs [| (b1, pages) |]
          | Unmap s -> Option.iter (fun (base, _) -> both (fun m -> Mem.munmap m base)) (pick s)
          | Protect (s, p, k) ->
            Option.iter
              (fun (base, pages) ->
                let prot = [| Mem.No_access; Mem.Read_only; Mem.Read_write |].(k) in
                both (fun m -> Mem.protect m ~addr:(base + (p mod pages * 4096)) ~len:1 prot))
              (pick s)
          | Scalar (kind, s, o, v) ->
            Option.iter
              (fun (base, pages) -> scalar ~kind base ((o mod ((pages * 4096) + 16)) - 8) v)
              (pick s)
          | Bulk (store, s, o, len) ->
            Option.iter
              (fun (base, pages) ->
                let addr = base + (o mod (pages * 4096)) in
                if store then
                  both (fun m -> Mem.write_bytes m ~addr (String.init len (fun i -> Char.chr ((i * 31 + o) land 0xFF))))
                else both (fun m -> ignore (Mem.read_bytes m ~addr ~len)))
              (pick s)
          | Checkpoint -> both Mem.checkpoint
          | Rewind -> if Mem.checkpointed m1 then both (fun m -> ignore (Mem.rewind m))
          | Alias (s, a, b, merge) ->
            Option.iter
              (fun (base, pages) ->
                let src = base + (a mod pages * 4096) and dst = base + (b mod pages * 4096) in
                both (fun m -> Mem.alias m ~src ~dst ~live:(if merge then [ (64, 64) ] else [])))
              (pick s));
          Mem.check_invariants m1;
          Mem.check_invariants m2;
          if
            Mem.touched_pages m1 <> Mem.touched_pages m2
            || Mem.dirty_pages m1 <> Mem.dirty_pages m2
            || Mem.preimaged_pages m1 <> Mem.preimaged_pages m2
          then QCheck.Test.fail_reportf "after %s: page counts differ" (show_op op))
        ops;
      (* Every byte of every segment ever mapped reads the same. *)
      Array.iter
        (fun (base, pages) ->
          for p = 0 to pages - 1 do
            both (fun m -> Mem.read_bytes m ~addr:(base + (p * 4096)) ~len:4096)
          done)
        !segs;
      true)

let suite =
  [
    Alcotest.test_case "mmap aligned base" `Quick test_mmap_returns_aligned_base;
    Alcotest.test_case "mmap page rounding" `Quick test_mmap_rounds_to_pages;
    Alcotest.test_case "segments disjoint" `Quick test_segments_disjoint;
    Alcotest.test_case "hole between segments" `Quick test_hole_between_segments;
    Alcotest.test_case "munmap" `Quick test_munmap;
    Alcotest.test_case "munmap bad base" `Quick test_munmap_bad_base;
    Alcotest.test_case "NULL never mapped" `Quick test_null_never_mapped;
    Alcotest.test_case "segment_of" `Quick test_segment_of;
    Alcotest.test_case "mapped bytes accounting" `Quick test_mapped_bytes;
    Alcotest.test_case "guard page faults" `Quick test_guard_page_faults;
    Alcotest.test_case "read-only pages" `Quick test_read_only;
    Alcotest.test_case "word across guard faults" `Quick test_word_access_across_guard_faults;
    Alcotest.test_case "byte roundtrip" `Quick test_byte_roundtrip;
    Alcotest.test_case "byte truncation" `Quick test_byte_truncation;
    Alcotest.test_case "word roundtrip" `Quick test_word_roundtrip;
    Alcotest.test_case "word little endian" `Quick test_word_little_endian;
    Alcotest.test_case "unaligned word" `Quick test_unaligned_word;
    Alcotest.test_case "fresh memory zeroed" `Quick test_fresh_memory_zeroed;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "fill" `Quick test_fill;
    Alcotest.test_case "random fill seed-dependent" `Quick test_fill_random_differs_by_seed;
    Alcotest.test_case "cstring" `Quick test_cstring;
    Alcotest.test_case "stats counting" `Quick test_stats_counting;
    Alcotest.test_case "touched pages" `Quick test_touched_pages;
    Alcotest.test_case "munmap drops the cached segment" `Quick test_munmap_drops_cached_segment;
    Alcotest.test_case "protect a dirty page" `Quick test_protect_dirty_page;
    Alcotest.test_case "alias through the cache" `Quick test_alias_through_cache;
    Alcotest.test_case "process exit" `Quick test_process_exit;
    Alcotest.test_case "process exit code" `Quick test_process_exit_code;
    Alcotest.test_case "process crash" `Quick test_process_crash;
    Alcotest.test_case "process abort" `Quick test_process_abort;
    Alcotest.test_case "process timeout" `Quick test_process_timeout;
    Alcotest.test_case "fuel accounting" `Quick test_fuel_accounting;
    Alcotest.test_case "fuel unlimited" `Quick test_fuel_unlimited;
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
    QCheck_alcotest.to_alcotest prop_disjoint_writes_do_not_interfere;
    QCheck_alcotest.to_alcotest prop_scalar_matches_bulk;
  ]
