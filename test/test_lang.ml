(* Tests for MiniC: lexer, parser, pretty-printer roundtrip, interpreter
   semantics, and the memory-error behaviours that make MiniC a faithful
   stand-in for unsafe C programs. *)

module Mem = Dh_mem.Mem
module Process = Dh_mem.Process
module Allocator = Dh_alloc.Allocator
module Program = Dh_alloc.Program
open Dh_lang

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Run a source string under a fresh freelist allocator; return result. *)
let run_freelist ?(input = "") ?(policy_kind = Dh_alloc.Policy.Raw) ?libc src =
  let mem = Mem.create () in
  let fl = Dh_alloc.Freelist.create mem in
  let program = Interp.program_of_source ?libc ~name:"test" src in
  Program.run ~policy_kind ~input program (Dh_alloc.Freelist.allocator fl)

let run_diehard ?(input = "") ?libc ?(seed = 1) src =
  let mem = Mem.create () in
  let config = Diehard.Config.v ~heap_size:(12 * 64 * 1024) ~seed () in
  let heap = Diehard.Heap.create ~config mem in
  let program = Interp.program_of_source ?libc ~name:"test" src in
  Program.run ~input program (Diehard.Heap.allocator heap)

let output_of result = result.Process.output

let expect_output ?input ?libc src expected =
  let r = run_freelist ?input ?libc src in
  (match r.Process.outcome with
  | Process.Exited 0 -> ()
  | other -> Alcotest.failf "program did not exit cleanly: %s" (Process.outcome_to_string other));
  check_string "output" expected (output_of r)

(* --- lexer --- *)

let test_lex_basics () =
  let toks = Lexer.tokenize "fn main() { var x = 42; }" in
  let kinds = Array.to_list (Array.map (fun p -> p.Lexer.token) toks) in
  check "token stream" true
    (kinds
    = [ Lexer.KW_FN; Lexer.IDENT "main"; Lexer.LPAREN; Lexer.RPAREN; Lexer.LBRACE;
        Lexer.KW_VAR; Lexer.IDENT "x"; Lexer.EQ; Lexer.INT 42; Lexer.SEMI;
        Lexer.RBRACE; Lexer.EOF ])

let test_lex_operators () =
  let toks = Lexer.tokenize "== != <= >= << >> && || = < >" in
  let kinds = Array.to_list (Array.map (fun p -> p.Lexer.token) toks) in
  check "operators" true
    (kinds
    = [ Lexer.EQEQ; Lexer.NE; Lexer.LE; Lexer.GE; Lexer.SHL; Lexer.SHR;
        Lexer.AMPAMP; Lexer.PIPEPIPE; Lexer.EQ; Lexer.LT; Lexer.GT; Lexer.EOF ])

let test_lex_string_escapes () =
  let toks = Lexer.tokenize {|"a\nb\t\"c\\" 'x' '\n'|} in
  (match toks.(0).Lexer.token with
  | Lexer.STRING s -> check_string "escapes" "a\nb\t\"c\\" s
  | _ -> Alcotest.fail "expected string");
  (match toks.(1).Lexer.token with
  | Lexer.CHAR 'x' -> ()
  | _ -> Alcotest.fail "expected char");
  match toks.(2).Lexer.token with
  | Lexer.CHAR '\n' -> ()
  | _ -> Alcotest.fail "expected newline char"

let test_lex_comments () =
  let toks = Lexer.tokenize "1 // comment\n 2 /* multi\nline */ 3" in
  let ints =
    Array.to_list toks
    |> List.filter_map (fun p ->
           match p.Lexer.token with Lexer.INT n -> Some n | _ -> None)
  in
  Alcotest.(check (list int)) "comments skipped" [ 1; 2; 3 ] ints

let test_lex_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  check_int "a line" 1 toks.(0).Lexer.line;
  check_int "b line" 2 toks.(1).Lexer.line;
  check_int "b col" 3 toks.(1).Lexer.col

let test_lex_error () =
  match Lexer.tokenize "a $ b" with
  | exception Lexer.Lex_error (_, 1, 3) -> ()
  | exception Lexer.Lex_error (_, l, c) ->
    Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "expected lex error"

(* --- parser --- *)

let test_parse_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  check "mul binds tighter" true
    (e = Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)));
  let e = Parser.parse_expr "1 < 2 && 3 < 4" in
  (match e with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, _, _), Ast.Binop (Ast.Lt, _, _)) -> ()
  | _ -> Alcotest.fail "comparison binds tighter than &&");
  let e = Parser.parse_expr "1 + 2 + 3" in
  match e with
  | Ast.Binop (Ast.Add, Ast.Binop (Ast.Add, _, _), _) -> ()
  | _ -> Alcotest.fail "addition is left-associative"

let test_parse_unary_and_index () =
  (match Parser.parse_expr "*p" with
  | Ast.Unop (Ast.Deref, Ast.Var "p") -> ()
  | _ -> Alcotest.fail "deref");
  (match Parser.parse_expr "a[i + 1]" with
  | Ast.Index (Ast.Var "a", Ast.Binop (Ast.Add, _, _)) -> ()
  | _ -> Alcotest.fail "index");
  match Parser.parse_expr "-x[0]" with
  | Ast.Unop (Ast.Neg, Ast.Index (_, _)) -> ()
  | _ -> Alcotest.fail "unary binds looser than postfix"

let test_parse_statements () =
  let p =
    Parser.parse_program
      "fn main() { var i = 0; for (i = 0; i < 10; i = i + 1) { continue; } \
       while (1) { break; } if (i) { return 1; } else { return; } }"
  in
  match p.Ast.funcs with
  | [ { Ast.body; _ } ] -> check_int "four statements" 4 (List.length body)
  | _ -> Alcotest.fail "one function expected"

let test_parse_else_if () =
  let p = Parser.parse_program "fn main() { if (1) { } else if (2) { } else { } }" in
  match p.Ast.funcs with
  | [ { Ast.body = [ Ast.If (_, [], [ Ast.If (_, [], []) ]) ]; _ } ] -> ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_parse_error_position () =
  match Parser.parse_program "fn main() { var = 3; }" with
  | exception Parser.Syntax_error (_, 1, _) -> ()
  | _ -> Alcotest.fail "expected syntax error"

let test_parse_bad_lvalue () =
  match Parser.parse_program "fn main() { 1 + 2 = 3; }" with
  | exception Parser.Syntax_error (msg, _, _) ->
    check "mentions lvalue" true
      (String.length msg > 0
      && String.sub msg 0 (min 9 (String.length msg)) = "left-hand")
  | _ -> Alcotest.fail "expected lvalue error"

let test_pretty_roundtrip () =
  let src =
    "fn helper(a, b) { return a + b * 2; } fn main() { var p = malloc(64); \
     p[0] = helper(1, 2); *(p + 8) = 'x'; if (p[0] > 3) { \
     print_str(\"big\\n\"); } else { print_int(p[0]); } for (var i = 0; i < \
     4; i = i + 1) { print_int(i); } free(p); return 0; }"
  in
  let ast1 = Parser.parse_program src in
  let printed = Ast.to_string ast1 in
  let ast2 = Parser.parse_program printed in
  check "parse(print(parse src)) = parse src" true (ast1 = ast2)

let test_string_literals_collected () =
  let p = Parser.parse_program {|fn main() { print_str("a"); print_str("b"); print_str("a"); }|} in
  Alcotest.(check (list string)) "deduplicated, in order" [ "a"; "b" ]
    (Ast.string_literals p)

(* --- interpreter: pure semantics --- *)

let test_arithmetic () =
  expect_output "fn main() { print_int(2 + 3 * 4 - 6 / 2); }" "11";
  expect_output "fn main() { print_int(17 % 5); }" "2";
  expect_output "fn main() { print_int(-7); }" "-7";
  expect_output "fn main() { print_int(1 << 10); }" "1024";
  (* odd shift amounts (regression: a mask bug once turned >>1 into >>0) *)
  expect_output "fn main() { print_int(7 >> 1); print_int(1 << 3); print_int(-8 >> 1); }"
    "38-4";
  expect_output "fn main() { print_int(255 & 15); print_int(1 | 2); print_int(5 ^ 1); }"
    "1534"

let test_comparisons_and_logic () =
  expect_output "fn main() { print_int(3 < 4); print_int(4 <= 4); print_int(5 > 6); }"
    "110";
  expect_output "fn main() { print_int(1 && 0); print_int(1 || 0); print_int(!3); }"
    "010"

let test_short_circuit () =
  (* The right operand must not run when short-circuited: a diverging
     call guarded by && would otherwise crash via unknown variable. *)
  expect_output
    "fn boom() { var x = *0; return x; } fn main() { print_int(0 && boom()); }" "0"

let test_variables_and_scope () =
  expect_output "fn main() { var x = 1; { var x = 2; print_int(x); } print_int(x); }"
    "21";
  expect_output "fn main() { var x = 1; x = x + 41; print_int(x); }" "42"

let test_functions () =
  expect_output
    "fn add(a, b) { return a + b; } fn main() { print_int(add(40, 2)); }" "42";
  expect_output
    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } \
     fn main() { print_int(fib(10)); }"
    "55";
  expect_output "fn f() { return; } fn main() { print_int(f()); }" "0"

let test_functions_do_not_see_caller_locals () =
  (* Runtime_error deliberately escapes Process.run: it is a bug in the
     MiniC source, not a simulated memory error. *)
  match
    run_freelist
      "fn f() { return hidden; } fn main() { var hidden = 1; print_int(f()); }"
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "callee saw caller's local"

let test_loops () =
  expect_output
    "fn main() { var s = 0; for (var i = 1; i <= 10; i = i + 1) { s = s + i; } print_int(s); }"
    "55";
  expect_output
    "fn main() { var i = 0; while (i < 3) { print_int(i); i = i + 1; } }" "012";
  expect_output
    "fn main() { for (var i = 0; i < 10; i = i + 1) { if (i == 3) { break; } print_int(i); } }"
    "012";
  expect_output
    "fn main() { for (var i = 0; i < 5; i = i + 1) { if (i % 2) { continue; } print_int(i); } }"
    "024"

let test_exit_code () =
  let r = run_freelist "fn main() { exit(7); print_int(1); }" in
  check "exit code 7" true (r.Process.outcome = Process.Exited 7);
  check_string "no output after exit" "" (output_of r);
  let r = run_freelist "fn main() { return 3; }" in
  check "nonzero main return" true (r.Process.outcome = Process.Exited 3)

let test_strings_and_io () =
  expect_output {|fn main() { print_str("hello\n"); print_char('!'); }|} "hello\n!";
  expect_output ~input:"ab" "fn main() { print_int(getchar()); print_int(getchar()); print_int(getchar()); }"
    "9798-1";
  expect_output {|fn main() { print_int(strlen("hello")); }|} "5";
  expect_output {|fn main() { print_int(strcmp("abc", "abc")); print_int(strcmp("a", "b") < 0); }|}
    "01"

let test_now_intercepted () =
  let mem = Mem.create () in
  let fl = Dh_alloc.Freelist.create mem in
  let program = Interp.program_of_source ~name:"t" "fn main() { print_int(now()); }" in
  let r = Program.run ~now:12345 program (Dh_alloc.Freelist.allocator fl) in
  check_string "clock value" "12345" (output_of r)

(* --- interpreter: heap behaviour --- *)

let test_heap_roundtrip () =
  expect_output
    "fn main() { var p = malloc(64); p[0] = 42; p[1] = p[0] + 1; \
     print_int(p[0]); print_int(p[1]); free(p); }"
    "4243";
  expect_output
    "fn main() { var p = malloc(16); *p = 7; *(p + 8) = 8; print_int(*p + *(p+8)); }"
    "15"

let test_byte_access () =
  expect_output
    "fn main() { var p = malloc(8); store8(p, 65); store8(p + 1, 66); store8(p + 2, 0); print_str(p); }"
    "AB"

let test_calloc_zeroed () =
  expect_output "fn main() { var p = calloc(64); print_int(p[0] + p[7]); }" "0"

let test_strcpy_builtin () =
  expect_output
    {|fn main() { var p = malloc(32); strcpy(p, "copied"); print_str(p); }|} "copied"

let test_gets_reads_line () =
  expect_output ~input:"first\nsecond"
    "fn main() { var p = malloc(64); gets(p); print_str(p); print_char('|'); gets(p); print_str(p); }"
    "first|second"

let test_malloc_failure_returns_null () =
  (* Exhaust a tiny DieHard size class and observe NULL. *)
  let r =
    run_diehard
      "fn main() { var n = 0; for (var i = 0; i < 100000; i = i + 1) { \
       var p = malloc(16384); if (p == 0) { print_int(n); exit(0); } n = n + 1; } }"
  in
  check "exited" true (r.Process.outcome = Process.Exited 0);
  (* 64KB region, 16KB objects, M=2: exactly 2 allocations fit *)
  check_string "threshold hit after 2" "2" (output_of r)

(* --- interpreter: memory errors behave like C --- *)

let test_wild_write_crashes () =
  let r = run_freelist "fn main() { *1234567899 = 1; }" in
  match r.Process.outcome with
  | Process.Crashed (Dh_mem.Fault.Unmapped _) -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Process.outcome_to_string o)

let test_null_deref_crashes () =
  let r = run_freelist "fn main() { print_int(*0); }" in
  match r.Process.outcome with
  | Process.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Process.outcome_to_string o)

let test_overflow_corrupts_neighbour_freelist () =
  (* Two adjacent chunks under the freelist allocator: writing one word
     past p lands in q's header/payload area. *)
  let r =
    run_freelist
      "fn main() { var p = malloc(8); var q = malloc(8); q[0] = 111; \
       p[3] = 222; print_int(q[0]); }"
  in
  (* p[3] = *(p+24); chunk is 32 bytes total: 8 header + 24 payload, so
     p+24 is exactly q's header. q's data may or may not change, but the
     program must keep running (silent corruption). *)
  check "silent corruption, no crash" true (r.Process.outcome = Process.Exited 0)

let test_uninitialized_read_stale_data () =
  (* freelist: freed memory is recycled without clearing *)
  let r =
    run_freelist
      "fn main() { var p = malloc(64); p[2] = 12345; free(p); \
       var q = malloc(64); print_int(q[2]); }"
  in
  check_string "stale data visible" "12345" (output_of r)

let test_fail_stop_policy_aborts_overflow () =
  let r =
    run_freelist ~policy_kind:Dh_alloc.Policy.Fail_stop
      "fn main() { var p = malloc(24); p[3] = 1; }"
  in
  match r.Process.outcome with
  | Process.Aborted _ -> ()
  | o -> Alcotest.failf "expected abort, got %s" (Process.outcome_to_string o)

let test_oblivious_policy_survives_overflow () =
  let r =
    run_freelist ~policy_kind:Dh_alloc.Policy.Oblivious
      "fn main() { var p = malloc(24); p[5] = 1; print_str(\"alive\"); }"
  in
  check "continues" true (r.Process.outcome = Process.Exited 0);
  check_string "output" "alive" (output_of r)

let test_bounded_libc_stops_strcpy_overflow () =
  (* Under DieHard with the §4.4 shims, strcpy into an 8-byte object
     cannot write past it. *)
  let src =
    {|fn main() { var big = malloc(256); memset(big, 'A', 200); store8(big + 200, 0);
       var small = malloc(8); strcpy(small, big); print_int(strlen(small)); }|}
  in
  let r = run_diehard ~libc:Interp.Bounded src in
  check "no crash" true (r.Process.outcome = Process.Exited 0);
  check_string "truncated to 7 chars + NUL" "7" (output_of r)

let test_unchecked_libc_overflows () =
  let src =
    {|fn main() { var big = malloc(256); memset(big, 'A', 200); store8(big + 200, 0);
       var small = malloc(8); strcpy(small, big); print_int(strlen(small)); }|}
  in
  let r = run_diehard ~libc:Interp.Unchecked src in
  (* Under DieHard the overflow lands on free space: program survives and
     the string is fully copied. *)
  check "survives (randomized heap)" true (r.Process.outcome = Process.Exited 0);
  check_string "whole string copied" "200" (output_of r)

let test_runtime_errors () =
  let expect_runtime_error src =
    match run_freelist src with
    | exception Interp.Runtime_error _ -> ()
    | _ -> Alcotest.fail "expected Runtime_error"
  in
  expect_runtime_error "fn main() { print_int(nope); }";
  expect_runtime_error "fn main() { nope(1); }";
  expect_runtime_error "fn f(a) { return a; } fn main() { f(1, 2); }";
  expect_runtime_error "fn main() { print_int(1 / 0); }";
  expect_runtime_error "fn notmain() { }"

let test_infinite_loop_times_out () =
  let mem = Mem.create () in
  let fl = Dh_alloc.Freelist.create mem in
  let program = Interp.program_of_source ~name:"spin" "fn main() { while (1) { } }" in
  let r = Program.run ~fuel:10_000 program (Dh_alloc.Freelist.allocator fl) in
  check "timeout" true (r.Process.outcome = Process.Timeout)

(* --- GC root integration --- *)

let test_gc_roots_from_interpreter () =
  (* A long-running loop that drops objects: under the GC allocator with
     a small heap it must keep running because interpreter variables are
     roots and dropped objects get collected. *)
  let mem = Mem.create () in
  let gc = Dh_alloc.Gc.create ~arena_size:16384 ~heap_limit:16384 mem in
  let program =
    Interp.program_of_source ~name:"churn"
      "fn main() { var keep = malloc(64); keep[0] = 99; \
       for (var i = 0; i < 500; i = i + 1) { var tmp = malloc(64); tmp[0] = i; } \
       print_int(keep[0]); }"
  in
  let r = Program.run program (Dh_alloc.Gc.allocator gc) in
  check "survived churn in a tiny heap" true (r.Process.outcome = Process.Exited 0);
  check_string "rooted object intact" "99" (output_of r)

(* --- interpreter: evaluation order, fuel, errors and scoping ---

   One case per rule the compiled closures must keep.  [tag c v] prints
   [c] and returns [v], so the output records the order in which
   subexpressions ran. *)

(* Run [src] on a fresh freelist heap; return the output it produced and
   the [Runtime_error] it raised, if any. *)
let run_capturing src =
  let program = Interp.program_of_source ~name:"edge" src in
  let out = ref "" in
  let wrapped =
    Program.make ~name:"edge" (fun ctx ->
        Fun.protect
          ~finally:(fun () -> out := Process.Out.contents ctx.Program.out)
          (fun () -> program.Program.main ctx))
  in
  let mem = Mem.create () in
  let alloc = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create mem) in
  match Program.run wrapped alloc with
  | exception Interp.Runtime_error msg -> (!out, Some msg)
  | r ->
    (match r.Process.outcome with
    | Process.Exited 0 -> ()
    | o -> Alcotest.failf "unexpected outcome %s" (Process.outcome_to_string o));
    (!out, None)

let tag = "fn tag(c, v) { print_char(c); return v; } "

let edge_cases =
  [
    ( "order: binop operands left to right",
      tag ^ "fn main() { print_int(tag('a', 1) - tag('b', 2)); print_int(tag('c', 3) < tag('d', 4)); }",
      "ab-1cd1", None );
    ( "order: index base before index",
      tag ^ "fn main() { var a = malloc(16); a[1] = 5; print_int(tag('b', a)[tag('i', 1)]); }",
      "bi5", None );
    ( "order: call arguments left to right",
      tag
      ^ "fn f(x, y, z) { return x * 100 + y * 10 + z; } fn main() { var a = malloc(8); \
         print_int(f(tag('a', 1), tag('b', 2), tag('c', 3))); store8(tag('p', a), tag('v', 65)); \
         print_int(load8(a)); }",
      "abc123pv65", None );
    ( "order: assignment value before target",
      tag
      ^ "fn main() { var a = malloc(16); tag('b', a)[tag('i', 1)] = tag('v', 7); \
         *tag('p', a) = tag('w', 8); print_int(a[1]); print_int(a[0]); }",
      "vbiwp78", None );
    ( "error: unknown variable",
      "fn main() { print_int(1); print_int(nope); }",
      "1", Some "unknown variable nope" );
    ( "error: unknown assignment target after its value",
      tag ^ "fn main() { nope = tag('v', 1); }",
      "v", Some "unknown variable nope" );
    ( "error: unknown function before its arguments",
      tag ^ "fn main() { nope(tag('a', 1)); }",
      "", Some "unknown function nope" );
    ( "error: user arity after the arguments",
      tag ^ "fn f(a) { return a; } fn main() { f(tag('a', 1), tag('b', 2)); }",
      "ab", Some "f expects 1 argument(s), got 2" );
    ( "error: builtin arity after the arguments",
      tag ^ "fn main() { malloc(tag('a', 1), tag('b', 2)); }",
      "ab", Some "malloc expects 1 argument(s), got 2" );
    ( "error: division by zero",
      "fn main() { print_int(1); print_int(7 / 0); }",
      "1", Some "division by zero" );
    ( "error: modulo by zero",
      "fn main() { print_int(7 % 0); }",
      "", Some "modulo by zero" );
    ( "error: only when the code runs",
      "fn never() { return ghost; } fn main() { if (0) { print_int(nope); nope2(); \
       free(1, 2); print_int(1 / 0); } else { print_int(1); } }",
      "1", None );
    ( "scope: var x = x + 1 reads the outer x",
      "fn main() { var x = 1; { var x = x + 1; print_int(x); } print_int(x); }",
      "21", None );
    ( "scope: redeclaring in a block reuses the binding",
      "fn main() { var x = 1; var x = x + 5; print_int(x); \
       while (x < 9) { var y = x; var y = y + 1; x = y; } print_int(x); }",
      "69", None );
    ( "scope: callees cannot see caller locals",
      "fn f() { return hidden; } fn main() { var hidden = 1; print_int(2); print_int(f()); }",
      "2", Some "unknown variable hidden" );
    ( "scope: parameters are the callee's own",
      "fn f(x, x) { x = x + 1; return x; } fn main() { var x = 10; print_int(f(1, 2)); print_int(x); }",
      "310", None );
    ( "scope: builtins beat user functions",
      {|fn strlen(s) { return 99; } fn main() { print_int(strlen("abc")); }|},
      "3", None );
    ( "scope: the first duplicate definition wins",
      "fn f() { return 1; } fn f() { return 2; } fn main() { print_int(f()); }",
      "1", None );
    ( "scope: a for-step var is visible from the second iteration",
      "fn main() { var y = 100; for (var i = 0; i < 3; var y = i * 10) { \
       print_int(y); print_char(' '); y = y + 1; i = i + 1; } print_int(y); }",
      "100 10 20 101", None );
    ( "scope: a for-step var is unbound on the first iteration",
      "fn main() { for (var i = 0; i < 2; var z = i) { print_int(i); print_int(z); } }",
      "0", Some "unknown variable z" );
    ( "scope: a for-step var starts unbound on every entry",
      "fn main() { var z = 1; var n = 0; while (n < 2) { \
       for (var i = 0; i < 2; var z = i + 5) { print_int(z); i = i + 1; } n = n + 1; } }",
      "1616", None );
  ]

let edge_case_tests =
  List.map
    (fun (name, src, output, error) ->
      Alcotest.test_case name `Quick (fun () ->
          let out, err = run_capturing src in
          check_string "output" output out;
          Alcotest.(check (option string)) "runtime error" error err))
    edge_cases

(* Fuel: one unit per statement, per loop iteration (including the
   failing test) and per user call.  Here: main 1; [var x] 1; [for] 1,
   its init 1, 4 tests, 3 bodies, 3 calls of [f], 3 [return]s, 3 steps;
   [while] 1, 4 tests, 3 bodies — 28. *)
let test_fuel_accounting () =
  let src =
    "fn f() { return 1; } fn main() { var x = 0; \
     for (var i = 0; i < 3; i = i + 1) { x = x + f(); } while (x > 0) { x = x - 1; } }"
  in
  let outcome fuel =
    let mem = Mem.create () in
    let fl = Dh_alloc.Freelist.create mem in
    let program = Interp.program_of_source ~name:"fuel" src in
    (Program.run ~fuel program (Dh_alloc.Freelist.allocator fl)).Process.outcome
  in
  check "28 units finish" true (outcome 28 = Process.Exited 0);
  check "27 units time out" true (outcome 27 = Process.Timeout)

(* --- GC roots: exactly the variables in scope --- *)

(* Under the collector, a variable of a block that was left — by
   [break], [continue], [return] or falling off its end — no longer pins
   its object, while variables in scope (the caller's and the callee's
   parameters included) do.  The collection is forced at the
   [malloc(4000)] marker. *)
let test_gc_roots_in_scope_only () =
  let src =
    "fn by_return() { var r = malloc(48); return 0; } \
     fn marker(arg) { var m = malloc(4000); return 0; } \
     fn main() { var keep = malloc(40); by_return(); \
     for (var i = 0; i < 2; i = i + 1) { var b = malloc(56); break; } \
     for (var i = 0; i < 1; i = i + 1) { var c = malloc(64); continue; } \
     { var d = malloc(72); } \
     { var inner = malloc(80); marker(malloc(88)); print_int(inner == 0); } print_int(keep == 0); }"
  in
  let mem = Mem.create () in
  let gc = Dh_alloc.Gc.create mem in
  let base = Dh_alloc.Gc.allocator gc in
  let addrs = ref [] in
  let live = ref [] in
  let malloc n =
    if n = 4000 then begin
      Dh_alloc.Gc.collect gc;
      live :=
        List.rev_map
          (fun a ->
            match base.Allocator.find_object a with
            | Some { Allocator.allocated; _ } -> allocated
            | None -> false)
          !addrs
    end;
    let p = base.Allocator.malloc n in
    Option.iter (fun a -> addrs := a :: !addrs) p;
    p
  in
  let program = Interp.program_of_source ~name:"roots" src in
  let r = Program.run program { base with Allocator.malloc } in
  check_string "output" "00" r.Process.output;
  (* keep, by_return's r, b (break), c (continue), d (end of block),
     inner, marker's argument *)
  Alcotest.(check (list bool))
    "live after the forced collection"
    [ true; false; false; false; false; true; true ]
    !live

(* --- audit sites --- *)

(* Each allocating callsite is named the first time it allocates with
   observability on, so numbering follows execution order: [b]'s
   callsite runs first although [a]'s comes first in the text and in
   the order [main] reaches the calls, and [never]'s callsite, which
   never runs, takes no number. *)
let test_alloc_sites_follow_execution_order () =
  Dh_obs.Control.with_enabled true @@ fun () ->
  let config = Diehard.Config.v ~heap_size:(12 * 64 * 1024) ~seed:5 () in
  let heap = Diehard.Heap.create ~config (Mem.create ()) in
  let program =
    Interp.program_of_source ~name:"site-order"
      "fn a() { return malloc(16); } fn b() { return calloc(32); } \
       fn never() { return malloc(8); } \
       fn main() { var n = 0; var x = 0; var y = 0; var z = 0; \
       while (n < 3) { if (n > 0) { if (n == 5) { never(); } if (n == 1) { y = a(); } \
       else { z = a(); } } else { x = b(); } n = n + 1; } \
       print_int(x); print_char(' '); print_int(y); print_char(' '); print_int(z); }"
  in
  let r = Program.run program (Diehard.Heap.allocator heap) in
  let site_of a =
    match Diehard.Heap.site_of_addr heap a with
    | Some s -> Dh_obs.Audit.site_name s
    | None -> "none"
  in
  Alcotest.(check (list string))
    "site names"
    [ "minic:site-order:calloc#0"; "minic:site-order:malloc#1"; "minic:site-order:malloc#1" ]
    (List.map (fun a -> site_of (int_of_string a)) (String.split_on_char ' ' r.Process.output))

(* Sites are write-only telemetry: a MiniC run's output and memory
   traffic are the same with observability on and off. *)
let test_obs_does_not_change_runs () =
  let run enabled =
    Dh_obs.Control.with_enabled enabled @@ fun () ->
    let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~seed:9 ()) (Mem.create ()) in
    let alloc = Diehard.Heap.allocator heap in
    let r = Program.run (Dh_workload.Apps.espresso ()) alloc in
    let s = Mem.stats alloc.Allocator.mem in
    (r.Process.output, (s.Mem.reads, s.Mem.writes, s.Mem.cache_misses))
  in
  let off_out, off_stats = run false and on_out, on_stats = run true in
  check_string "output" off_out on_out;
  check "memory traffic" true (off_stats = on_stats)

(* --- parity fingerprints ---

   The whole observable footprint of the interpreter on the application
   programs and the Table-1 error programs: output, outcome, fuel burned
   and the simulated address space's access counters, under every kind of
   runtime.  The expected values were recorded from the tree-walking
   interpreter this compiler replaced; any change to evaluation order,
   fuel accounting or memory traffic shows up here. *)

(* Wrap [program] so each run records the fuel its [main] burned and the
   allocator it ran on (read after the run). *)
let metered program =
  let runs = ref [] in
  let wrapped =
    Program.make ~name:program.Program.name (fun ctx ->
        let fuel () = Option.value ~default:0 (Process.Fuel.remaining ctx.Program.fuel) in
        let before = fuel () in
        Fun.protect
          ~finally:(fun () ->
            runs := (before - fuel (), ctx.Program.alloc) :: !runs)
          (fun () -> program.Program.main ctx))
  in
  (wrapped, runs)

(* Enough for every program here to finish; squid's attack input sends
   the failure-oblivious run into a loop, which this bounds. *)
let parity_fuel = 1_000_000

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let footprint (fuel, alloc) =
  let s = Mem.stats alloc.Allocator.mem in
  Printf.sprintf "fuel=%d r=%d w=%d tlb=%d cm=%d gc=%d" fuel s.Mem.reads s.Mem.writes
    s.Mem.tlb_misses s.Mem.cache_misses alloc.Allocator.stats.Dh_alloc.Stats.gc_collections

let standalone ~input ~policy_kind alloc program =
  let wrapped, runs = metered program in
  let r = Program.run ~policy_kind ~input ~fuel:parity_fuel wrapped alloc in
  Printf.sprintf "%s out=%s %s"
    (Process.outcome_to_string r.Process.outcome)
    (digest r.Process.output)
    (String.concat " | " (List.rev_map footprint !runs))

let replicated ~input program =
  let wrapped, runs = metered program in
  let report =
    Diehard.Replicated.run ~replicas:3 ~seed_pool:(Dh_rng.Seed.create ~master:7) ~input
      ~fuel:parity_fuel wrapped
  in
  Printf.sprintf "%s out=%s %s"
    (match report.Diehard.Replicated.verdict with
    | Diehard.Replicated.Agreed -> "agreed"
    | Diehard.Replicated.Uninit_read_detected -> "uninit"
    | Diehard.Replicated.No_quorum -> "no-quorum"
    | Diehard.Replicated.All_died -> "all-died")
    (digest report.Diehard.Replicated.output)
    (String.concat " | " (List.rev_map footprint !runs))

let parity_systems =
  let freelist () = Dh_alloc.Freelist.allocator (Dh_alloc.Freelist.create (Mem.create ())) in
  [
    ("freelist", fun ~input p -> standalone ~input ~policy_kind:Dh_alloc.Policy.Raw (freelist ()) p);
    ( "diehard",
      fun ~input p ->
        let heap = Diehard.Heap.create ~config:(Diehard.Config.v ~seed:3 ()) (Mem.create ()) in
        standalone ~input ~policy_kind:Dh_alloc.Policy.Raw (Diehard.Heap.allocator heap) p );
    ("replicated", replicated);
    ( "gc",
      fun ~input p ->
        standalone ~input ~policy_kind:Dh_alloc.Policy.Raw
          (Dh_alloc.Gc.allocator (Dh_alloc.Gc.create (Mem.create ())))
          p );
    (* A heap small enough that the collector runs: marking starts from
       the interpreter's root set, so this covers its contents and order. *)
    ( "gc-small",
      fun ~input p ->
        standalone ~input ~policy_kind:Dh_alloc.Policy.Raw
          (Dh_alloc.Gc.allocator
             (Dh_alloc.Gc.create ~arena_size:(32 * 1024) ~heap_limit:(128 * 1024) (Mem.create ())))
          p );
    ( "fail-stop",
      fun ~input p -> standalone ~input ~policy_kind:Dh_alloc.Policy.Fail_stop (freelist ()) p );
    ( "oblivious",
      fun ~input p -> standalone ~input ~policy_kind:Dh_alloc.Policy.Oblivious (freelist ()) p );
  ]

(* The Table-1 error programs (bench/table1.ml), one per error class. *)
let table1_sources =
  [
    ( "t1-metadata",
      {|fn main() {
          var p = malloc(64); var q = malloc(64); free(q);
          p[8] = 1099511627777; p[9] = 1099511627776;
          var s = malloc(64); s[0] = 5;
          if (s[0] == 5) { print_str("OK"); } else { print_str("BAD"); } }|} );
    ( "t1-invalid-free",
      {|fn main() {
          var p = malloc(64);
          for (var i = 0; i < 8; i = i + 1) { p[i] = 1000 + i; }
          free(p + 8);
          var q = malloc(24); q[0] = 777;
          var ok = 1;
          for (var i = 0; i < 8; i = i + 1) { if (p[i] != 1000 + i) { ok = 0; } }
          if (ok) { print_str("OK"); } else { print_str("BAD"); } }|} );
    ( "t1-double-free",
      {|fn main() {
          var p = malloc(64); free(p); free(p);
          var a = malloc(64); var b = malloc(64); a[0] = 1; b[0] = 2;
          if (a != b && a[0] == 1) { print_str("OK"); } else { print_str("BAD"); } }|} );
    ( "t1-dangling",
      {|fn main() {
          var p = malloc(64); p[0] = 4242; free(p);
          var q = malloc(64); q[0] = 9999;
          if (p[0] == 4242) { print_str("OK"); } else { print_str("BAD"); } }|} );
    ( "t1-overflow",
      {|fn main() {
          var p = malloc(64); var q = malloc(64); q[0] = 31337;
          for (var i = 8; i < 12; i = i + 1) { p[i] = 666; }
          var ok = q[0] == 31337;
          free(p); free(q);
          var r = malloc(64); r[0] = 1;
          if (ok && r[0] == 1) { print_str("OK"); } else { print_str("BAD"); } }|} );
    ( "t1-uninit",
      {|fn main() { var p = malloc(64); print_int(p[0] & 1); print_str(" OK"); }|} );
  ]

(* Many short-lived objects next to a few long-lived ones, in a heap
   small enough to collect often: the collector's traffic depends on the
   contents and the order of the interpreter's root set. *)
let churn_source =
  {|fn fill(n) { var p = malloc(n); p[0] = n; return p; }
fn main() {
  var a = malloc(40000); var b = malloc(300); var c = malloc(20000); var d = malloc(500);
  var e = malloc(9000); var f2 = malloc(64); var g = malloc(12000); var h = malloc(100);
  var keep = 0;
  for (var i = 0; i < 150; i = i + 1) {
    var t1 = fill(1000 + i); var t2 = fill(3000); var t3 = fill(70);
    t1[1] = t2; t2[1] = t3;
    if (i % 7 == 0) { keep = t1; }
    { var inner = fill(2000); var inner2 = fill(900); inner[1] = keep; }
  }
  print_int(a + b + c + d + e + f2 + g + h + keep);
}|}

let parity_programs =
  let module Apps = Dh_workload.Apps in
  [
    ("espresso", Apps.espresso (), "");
    ("cfrac", Apps.cfrac (), "");
    ("lindsay", Apps.lindsay (), "");
    ("squid-good", Apps.squid (), Apps.squid_good_input ~requests:40);
    ("squid-attack", Apps.squid (), Apps.squid_attack_input ~requests:40);
    ("churn", Interp.program_of_source ~name:"churn" churn_source, "");
  ]
  @ List.map
      (fun (name, src) -> (name, Interp.program_of_source ~name src, ""))
      table1_sources

let parity_fingerprints () =
  List.concat_map
    (fun (pname, program, input) ->
      List.map
        (fun (sname, run) -> Printf.sprintf "%s/%s: %s" pname sname (run ~input program))
        parity_systems)
    parity_programs

let expected_fingerprints =
  [
    "espresso/freelist: exited(0) out=6b551b6b3029 fuel=118002 r=40700 w=39128 tlb=1 cm=53 gc=0";
    "espresso/diehard: exited(0) out=6b551b6b3029 fuel=118002 r=22027 w=19187 tlb=4080 cm=4224 gc=0";
    "espresso/replicated: agreed out=6b551b6b3029 fuel=118002 r=22027 w=10690051 tlb=6627 cm=168312 gc=0 | fuel=118002 r=22027 w=10690051 tlb=6672 cm=168313 gc=0 | fuel=118002 r=22027 w=10690051 tlb=6599 cm=168382 gc=0";
    "espresso/gc: exited(0) out=6b551b6b3029 fuel=118002 r=22027 w=22188 tlb=39 cm=2530 gc=1";
    "espresso/gc-small: exited(0) out=6b551b6b3029 fuel=118002 r=36460 w=24857 tlb=8 cm=512 gc=6";
    "espresso/fail-stop: exited(0) out=6b551b6b3029 fuel=118002 r=1110544 w=39128 tlb=1 cm=53 gc=0";
    "espresso/oblivious: exited(0) out=6b551b6b3029 fuel=118002 r=1110544 w=39128 tlb=1 cm=53 gc=0";
    "cfrac/freelist: exited(0) out=dc26da80bc50 fuel=28892 r=1663 w=2272 tlb=1 cm=2 gc=0";
    "cfrac/diehard: exited(0) out=dc26da80bc50 fuel=28892 r=378 w=981 tlb=297 cm=324 gc=0";
    "cfrac/replicated: agreed out=dc26da80bc50 fuel=28892 r=378 w=4205613 tlb=1311 cm=65852 gc=0 | fuel=28892 r=378 w=4205613 tlb=1319 cm=65855 gc=0 | fuel=28892 r=378 w=4205613 tlb=1319 cm=65859 gc=0";
    "cfrac/gc: exited(0) out=dc26da80bc50 fuel=28892 r=378 w=1306 tlb=3 cm=162 gc=1";
    "cfrac/gc-small: exited(0) out=dc26da80bc50 fuel=28892 r=378 w=1306 tlb=3 cm=162 gc=1";
    "cfrac/fail-stop: exited(0) out=dc26da80bc50 fuel=28892 r=6957 w=2272 tlb=1 cm=2 gc=0";
    "cfrac/oblivious: exited(0) out=dc26da80bc50 fuel=28892 r=6957 w=2272 tlb=1 cm=2 gc=0";
    "lindsay/freelist: exited(0) out=25442163d5b7 fuel=450 r=48 w=35 tlb=1 cm=4 gc=0";
    "lindsay/diehard: exited(0) out=25442163d5b7 fuel=450 r=48 w=32 tlb=3 cm=4 gc=0";
    "lindsay/replicated: uninit out=d41d8cd98f00 fuel=450 r=48 w=6291640 tlb=1541 cm=98310 gc=0 | fuel=450 r=48 w=6291640 tlb=1541 cm=98310 gc=0 | fuel=450 r=48 w=6291640 tlb=1541 cm=98310 gc=0";
    "lindsay/gc: exited(0) out=25442163d5b7 fuel=450 r=48 w=35 tlb=1 cm=3 gc=1";
    "lindsay/gc-small: exited(0) out=25442163d5b7 fuel=450 r=48 w=35 tlb=1 cm=3 gc=1";
    "lindsay/fail-stop: aborted: uninitialized read of 8 byte(s) at 0x100c0 out=39b1b334f5fa fuel=444 r=158 w=35 tlb=1 cm=3 gc=0";
    "lindsay/oblivious: exited(0) out=25442163d5b7 fuel=450 r=222 w=35 tlb=1 cm=4 gc=0";
    "squid-good/freelist: exited(0) out=ae267089ad88 fuel=1110 r=11879 w=1470 tlb=2 cm=13 gc=0";
    "squid-good/diehard: exited(0) out=ae267089ad88 fuel=1110 r=11847 w=1424 tlb=113 cm=25 gc=0";
    "squid-good/replicated: agreed out=ae267089ad88 fuel=1110 r=11847 w=8395048 tlb=2143 cm=131165 gc=0 | fuel=1110 r=11847 w=8395048 tlb=2078 cm=131165 gc=0 | fuel=1110 r=11847 w=8395048 tlb=2135 cm=131220 gc=0";
    "squid-good/gc: exited(0) out=ae267089ad88 fuel=1110 r=11847 w=1449 tlb=2 cm=19 gc=1";
    "squid-good/gc-small: exited(0) out=ae267089ad88 fuel=1110 r=11847 w=1449 tlb=2 cm=19 gc=1";
    "squid-good/fail-stop: exited(0) out=ae267089ad88 fuel=1110 r=111534 w=1470 tlb=2 cm=13 gc=0";
    "squid-good/oblivious: exited(0) out=ae267089ad88 fuel=1110 r=111534 w=1470 tlb=2 cm=13 gc=0";
    "squid-attack/freelist: crashed: segfault: read of unmapped address 0x4141414141414141 out=c385b6b3aa5a fuel=647 r=7595 w=1586 tlb=3 cm=20 gc=0";
    "squid-attack/diehard: exited(0) out=187f6edb9a53 fuel=1194 r=13033 w=2004 tlb=121 cm=37 gc=0";
    "squid-attack/replicated: agreed out=187f6edb9a53 fuel=1194 r=13033 w=10493132 tlb=2685 cm=163972 gc=0 | fuel=1194 r=13033 w=10493132 tlb=2646 cm=163967 gc=0 | fuel=1194 r=13033 w=10493132 tlb=2679 cm=164021 gc=0";
    "squid-attack/gc: crashed: segfault: read of unmapped address 0x4141414141414141 out=f24cd7493d6e fuel=617 r=6877 w=1537 tlb=3 cm=28 gc=1";
    "squid-attack/gc-small: crashed: segfault: read of unmapped address 0x4141414141414141 out=f24cd7493d6e fuel=617 r=6877 w=1537 tlb=3 cm=28 gc=1";
    "squid-attack/fail-stop: aborted: bounds check failed: store of 1 byte(s) at 0x110b0 out=7776600458ad fuel=615 r=66535 w=1421 tlb=2 cm=19 gc=0";
    "squid-attack/oblivious: timeout (infinite loop?) out=7054123b4d8c fuel=1000000 r=1751716 w=1638 tlb=2 cm=20 gc=0";
    "churn/freelist: exited(0) out=536a36661294 fuel=4836 r=0 w=1958 tlb=264 cm=900 gc=0";
    "churn/diehard: exited(0) out=8a5ea7bb8cd0 fuel=4836 r=0 w=1200 tlb=763 cm=763 gc=0";
    "churn/replicated: uninit out=d41d8cd98f00 fuel=4836 r=0 w=16152688 tlb=4362 cm=252388 gc=0 | fuel=4836 r=0 w=16152688 tlb=4362 cm=252354 gc=0 | fuel=4836 r=0 w=16152688 tlb=4359 cm=252393 gc=0";
    "churn/gc: exited(0) out=7fd4cf9200c3 fuel=4836 r=88722 w=2053 tlb=757 cm=3266 gc=2";
    "churn/gc-small: crashed: segfault: write of unmapped address 0x0 out=d41d8cd98f00 fuel=569 r=750693 w=503 tlb=28 cm=8309 gc=10";
    "churn/fail-stop: exited(0) out=536a36661294 fuel=4836 r=384110 w=1958 tlb=114353 cm=119823 gc=0";
    "churn/oblivious: exited(0) out=536a36661294 fuel=4836 r=384110 w=1958 tlb=114353 cm=119823 gc=0";
    "t1-metadata/freelist: crashed: segfault: write of unmapped address 0x10000000010 out=d41d8cd98f00 fuel=7 r=4 w=17 tlb=2 cm=4 gc=0";
    "t1-metadata/diehard: exited(0) out=e0aa021e21dd fuel=10 r=6 w=10 tlb=4 cm=4 gc=0";
    "t1-metadata/replicated: agreed out=e0aa021e21dd fuel=10 r=6 w=4194522 tlb=1030 cm=65543 gc=0 | fuel=10 r=6 w=4194522 tlb=1029 cm=65543 gc=0 | fuel=10 r=6 w=4194522 tlb=1030 cm=65543 gc=0";
    "t1-metadata/gc: exited(0) out=e0aa021e21dd fuel=10 r=6 w=15 tlb=1 cm=3 gc=1";
    "t1-metadata/gc-small: exited(0) out=e0aa021e21dd fuel=10 r=6 w=15 tlb=1 cm=3 gc=1";
    "t1-metadata/fail-stop: aborted: bounds check failed: store of 8 byte(s) at 0x10088 out=d41d8cd98f00 fuel=5 r=16 w=14 tlb=1 cm=3 gc=0";
    "t1-metadata/oblivious: exited(0) out=e0aa021e21dd fuel=10 r=42 w=16 tlb=1 cm=3 gc=0";
    "t1-invalid-free/freelist: exited(0) out=f1b68d66337a fuel=68 r=19 w=26 tlb=1 cm=3 gc=0";
    "t1-invalid-free/diehard: exited(0) out=e0aa021e21dd fuel=62 r=13 w=16 tlb=4 cm=4 gc=0";
    "t1-invalid-free/replicated: agreed out=e0aa021e21dd fuel=62 r=13 w=6291584 tlb=1542 cm=98310 gc=0 | fuel=62 r=13 w=6291584 tlb=1541 cm=98310 gc=0 | fuel=62 r=13 w=6291584 tlb=1542 cm=98310 gc=0";
    "t1-invalid-free/gc: exited(0) out=e0aa021e21dd fuel=62 r=13 w=20 tlb=1 cm=2 gc=1";
    "t1-invalid-free/gc-small: exited(0) out=e0aa021e21dd fuel=62 r=13 w=20 tlb=1 cm=2 gc=1";
    "t1-invalid-free/fail-stop: exited(0) out=f1b68d66337a fuel=68 r=95 w=26 tlb=1 cm=3 gc=0";
    "t1-invalid-free/oblivious: exited(0) out=f1b68d66337a fuel=68 r=95 w=26 tlb=1 cm=3 gc=0";
    "t1-double-free/freelist: exited(0) out=f1b68d66337a fuel=10 r=15 w=25 tlb=1 cm=2 gc=0";
    "t1-double-free/diehard: exited(0) out=e0aa021e21dd fuel=10 r=6 w=9 tlb=4 cm=4 gc=0";
    "t1-double-free/replicated: agreed out=e0aa021e21dd fuel=10 r=6 w=4194521 tlb=1030 cm=65542 gc=0 | fuel=10 r=6 w=4194521 tlb=1029 cm=65542 gc=0 | fuel=10 r=6 w=4194521 tlb=1030 cm=65542 gc=0";
    "t1-double-free/gc: exited(0) out=e0aa021e21dd fuel=10 r=6 w=14 tlb=1 cm=3 gc=1";
    "t1-double-free/gc-small: exited(0) out=e0aa021e21dd fuel=10 r=6 w=14 tlb=1 cm=3 gc=1";
    "t1-double-free/fail-stop: exited(0) out=f1b68d66337a fuel=10 r=46 w=25 tlb=1 cm=2 gc=0";
    "t1-double-free/oblivious: exited(0) out=f1b68d66337a fuel=10 r=46 w=25 tlb=1 cm=2 gc=0";
    "t1-dangling/freelist: exited(0) out=f1b68d66337a fuel=8 r=12 w=16 tlb=1 cm=2 gc=0";
    "t1-dangling/diehard: exited(0) out=e0aa021e21dd fuel=8 r=6 w=9 tlb=4 cm=4 gc=0";
    "t1-dangling/replicated: agreed out=e0aa021e21dd fuel=8 r=6 w=4194457 tlb=1029 cm=65541 gc=0 | fuel=8 r=6 w=4194457 tlb=1028 cm=65541 gc=0 | fuel=8 r=6 w=4194457 tlb=1029 cm=65541 gc=0";
    "t1-dangling/gc: exited(0) out=e0aa021e21dd fuel=8 r=6 w=13 tlb=1 cm=2 gc=1";
    "t1-dangling/gc-small: exited(0) out=e0aa021e21dd fuel=8 r=6 w=13 tlb=1 cm=2 gc=1";
    "t1-dangling/fail-stop: exited(0) out=f1b68d66337a fuel=8 r=46 w=16 tlb=1 cm=2 gc=0";
    "t1-dangling/oblivious: exited(0) out=f1b68d66337a fuel=8 r=46 w=16 tlb=1 cm=2 gc=0";
    "t1-overflow/freelist: exited(0) out=f1b68d66337a fuel=26 r=14 w=24 tlb=1 cm=3 gc=0";
    "t1-overflow/diehard: exited(0) out=e0aa021e21dd fuel=26 r=7 w=13 tlb=5 cm=5 gc=0";
    "t1-overflow/replicated: agreed out=e0aa021e21dd fuel=26 r=7 w=4194525 tlb=1030 cm=65543 gc=0 | fuel=26 r=7 w=4194525 tlb=1029 cm=65543 gc=0 | fuel=26 r=7 w=4194525 tlb=1030 cm=65543 gc=0";
    "t1-overflow/gc: exited(0) out=f1b68d66337a fuel=26 r=8 w=18 tlb=1 cm=3 gc=1";
    "t1-overflow/gc-small: exited(0) out=f1b68d66337a fuel=26 r=8 w=18 tlb=1 cm=3 gc=1";
    "t1-overflow/fail-stop: aborted: bounds check failed: store of 8 byte(s) at 0x10088 out=d41d8cd98f00 fuel=8 r=19 w=12 tlb=1 cm=3 gc=0";
    "t1-overflow/oblivious: exited(0) out=f1b68d66337a fuel=26 r=67 w=25 tlb=1 cm=3 gc=0";
    "t1-uninit/freelist: exited(0) out=48a2c11ed2d5 fuel=4 r=8 w=6 tlb=1 cm=1 gc=0";
    "t1-uninit/diehard: exited(0) out=48a2c11ed2d5 fuel=4 r=8 w=4 tlb=2 cm=2 gc=0";
    "t1-uninit/replicated: agreed out=37e30d6ab040 fuel=4 r=8 w=4194380 tlb=1027 cm=65539 gc=0 | fuel=4 r=8 w=4194380 tlb=1027 cm=65539 gc=0 | fuel=4 r=8 w=4194380 tlb=1027 cm=65539 gc=0";
    "t1-uninit/gc: exited(0) out=48a2c11ed2d5 fuel=4 r=8 w=6 tlb=1 cm=1 gc=1";
    "t1-uninit/gc-small: exited(0) out=48a2c11ed2d5 fuel=4 r=8 w=6 tlb=1 cm=1 gc=1";
    "t1-uninit/fail-stop: aborted: uninitialized read of 8 byte(s) at 0x10028 out=d41d8cd98f00 fuel=3 r=6 w=6 tlb=1 cm=1 gc=0";
    "t1-uninit/oblivious: exited(0) out=48a2c11ed2d5 fuel=4 r=21 w=6 tlb=1 cm=1 gc=0";
  ]

let test_parity_fingerprints () =
  Alcotest.(check (list string)) "fingerprints" expected_fingerprints (parity_fingerprints ())

(* --- qcheck: pretty-print / reparse roundtrip on generated ASTs --- *)

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Ast.Int i) (int_bound 1000);
              map (fun s -> Ast.Var ("v" ^ string_of_int s)) (int_bound 5) ]
        else
          frequency
            [ (2, map (fun i -> Ast.Int i) (int_bound 1000));
              (1, map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Binop (Ast.Mul, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map2 (fun a b -> Ast.Binop (Ast.Lt, a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1)));
              (1, map2 (fun a b -> Ast.Index (a, b)) (self (n / 2)) (self (n / 2)))
            ]))

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"pretty-printed expressions reparse to the same AST" ~count:200
    (QCheck.make gen_expr)
    (fun e ->
      let program = { Ast.funcs = [ { Ast.name = "main"; params = []; body = [ Ast.Expr e ] } ] } in
      let printed = Ast.to_string program in
      match Parser.parse_program printed with
      | { Ast.funcs = [ { Ast.body = [ Ast.Expr e' ]; _ } ] } -> e = e'
      | _ -> false)

let suite =
  [
    Alcotest.test_case "lex basics" `Quick test_lex_basics;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex strings" `Quick test_lex_string_escapes;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex positions" `Quick test_lex_positions;
    Alcotest.test_case "lex errors" `Quick test_lex_error;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse unary/index" `Quick test_parse_unary_and_index;
    Alcotest.test_case "parse statements" `Quick test_parse_statements;
    Alcotest.test_case "parse else-if" `Quick test_parse_else_if;
    Alcotest.test_case "parse error position" `Quick test_parse_error_position;
    Alcotest.test_case "parse bad lvalue" `Quick test_parse_bad_lvalue;
    Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "string literal collection" `Quick test_string_literals_collected;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons/logic" `Quick test_comparisons_and_logic;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "variables/scope" `Quick test_variables_and_scope;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "call scope isolation" `Quick test_functions_do_not_see_caller_locals;
    Alcotest.test_case "loops" `Quick test_loops;
    Alcotest.test_case "exit codes" `Quick test_exit_code;
    Alcotest.test_case "strings and io" `Quick test_strings_and_io;
    Alcotest.test_case "now intercepted" `Quick test_now_intercepted;
    Alcotest.test_case "heap roundtrip" `Quick test_heap_roundtrip;
    Alcotest.test_case "byte access" `Quick test_byte_access;
    Alcotest.test_case "calloc" `Quick test_calloc_zeroed;
    Alcotest.test_case "strcpy builtin" `Quick test_strcpy_builtin;
    Alcotest.test_case "gets" `Quick test_gets_reads_line;
    Alcotest.test_case "malloc failure -> NULL" `Quick test_malloc_failure_returns_null;
    Alcotest.test_case "wild write crashes" `Quick test_wild_write_crashes;
    Alcotest.test_case "null deref crashes" `Quick test_null_deref_crashes;
    Alcotest.test_case "overflow silent corruption" `Quick test_overflow_corrupts_neighbour_freelist;
    Alcotest.test_case "uninitialized stale read" `Quick test_uninitialized_read_stale_data;
    Alcotest.test_case "fail-stop aborts" `Quick test_fail_stop_policy_aborts_overflow;
    Alcotest.test_case "oblivious survives" `Quick test_oblivious_policy_survives_overflow;
    Alcotest.test_case "bounded libc truncates" `Quick test_bounded_libc_stops_strcpy_overflow;
    Alcotest.test_case "unchecked libc overflows" `Quick test_unchecked_libc_overflows;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "infinite loop timeout" `Quick test_infinite_loop_times_out;
    Alcotest.test_case "gc roots" `Quick test_gc_roots_from_interpreter;
    Alcotest.test_case "gc roots: in-scope variables only" `Quick test_gc_roots_in_scope_only;
    Alcotest.test_case "fuel accounting" `Quick test_fuel_accounting;
    Alcotest.test_case "alloc sites in execution order" `Quick
      test_alloc_sites_follow_execution_order;
    Alcotest.test_case "obs on/off same run" `Quick test_obs_does_not_change_runs;
    Alcotest.test_case "parity fingerprints" `Quick test_parity_fingerprints;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
  ]
  @ edge_case_tests
