(** The MiniC interpreter.

    Executes a parsed program against a {!Dh_alloc.Program.context}: all
    heap traffic goes through the context's allocator and access policy,
    so the same program runs unchanged under the freelist baseline, the
    conservative GC, DieHard, a fail-stop checker or a failure-oblivious
    shield — the paper's interposition, in simulation.

    Execution starts at [main()].  Variables live outside the simulated
    heap (MiniC models heap errors, not stack smashing — the paper's
    DieHard likewise "does not prevent safety errors based on stack
    corruption", §9).

    {b Resolve, then run.}  Each {!run} first allocates the string
    literals, then compiles the functions [main] can reach into OCaml
    closures and runs them.  Compilation resolves every variable to a
    slot in its function's frame (one [int] array plus a live flag per
    slot, allocated per call) and binds every call to a builtin or a
    user function, so running does no name lookup.  It changes nothing
    observable: operands, indices and call arguments run left to right,
    an assignment's value runs before its target address, fuel is burnt
    per statement, per loop test and per user call, and name, arity and
    division errors are raised only when the offending code runs.  Each
    block is a scope; [var x = x + 1] reads the enclosing [x], a
    redeclaration in the same block reuses the binding, and callees do
    not see their callers' variables.  A builtin shadows a user function
    of the same name, and the first of duplicate definitions wins.  A
    [var] in a [for] step belongs to the loop's scope only once the step
    has run: the condition and body see it from the second iteration
    on.

    If the allocator is garbage-collected, the string literals and the
    live slots of every active call — variables whose block is still
    running — are registered as roots, scanned conservatively.  A
    variable of a block left by [break], [continue], [return] or an
    exception is not a root.  Roots are listed in a fixed order, since
    the collector's simulated cache and TLB traffic depends on it.

    {b Builtins}: [malloc(n)], [calloc(n)], [realloc(p,n)], [free(p)], [print_int(v)],
    [print_str(p)], [print_char(c)], [getchar()] (next input byte or -1),
    [gets(p)] (reads an input line with {e no} bounds check — the classic
    overflow vector), [strlen(s)], [strcpy(d,s)], [strncpy(d,s,n)],
    [strcmp(a,b)], [memcpy(d,s,n)], [memset(d,c,n)], [load8(p)],
    [store8(p,v)], [now()] (the intercepted clock, §5.3), [exit(code)].

    With [libc = Bounded], [strcpy]/[strncpy]/[memcpy] are replaced by
    DieHard's bounded variants (§4.4): the copy is limited to the space
    remaining in the destination object. *)

type libc =
  | Unchecked  (** Ordinary C semantics: the copy trusts its arguments. *)
  | Bounded  (** DieHard's replacement library functions (§4.4). *)

exception Runtime_error of string
(** A MiniC-level error that is a bug in the {e simulation input}, not a
    simulated memory error: unknown variable or function, wrong arity,
    division by zero.  Escapes {!Dh_mem.Process.run} — experiments never
    trigger it with well-formed programs. *)

val run : ?libc:libc -> ?name:string -> Ast.program -> Dh_alloc.Program.context -> unit
(** Run [main()] to completion within an existing context.  [name]
    (default ["minic"]) prefixes the audit allocation-site labels the
    interpreter interns for [malloc]/[calloc]/[realloc] callsites —
    ["minic:<name>:malloc#2"] — while observability is enabled.  Each
    AST callsite gets its own site, numbered in first-execution
    order. *)

val to_program : ?libc:libc -> name:string -> Ast.program -> Dh_alloc.Program.t
(** Package as a runnable {!Dh_alloc.Program.t}. *)

val program_of_source : ?libc:libc -> name:string -> string -> Dh_alloc.Program.t
(** Parse and package MiniC source text. *)
