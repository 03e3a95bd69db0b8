let default_limit = 100_000

(* Substitute a constant value for a dimension, dropping the dimension. *)
let fix_dim = Basic_set.fix_dim

(* FM elimination of [d] is integer-exact when a unit equality on [d]
   exists (substitution), or when every lower/upper bound pair has a unit
   coefficient on at least one side — that is, all lower bounds or all
   upper bounds are unit.  An equality bounds [d] from both sides.  One
   pass over the coefficients, no bound lists built: [rational_empty] asks
   this of every dimension at every step. *)
let elimination_exact d s =
  let unit_eq = ref false and low_nonunit = ref false and up_nonunit = ref false in
  List.iter
    (fun c ->
      let cd = Linexpr.coeff (Constr.expr c) d in
      if Constr.is_eq c then begin
        if abs cd = 1 then unit_eq := true
        else if cd <> 0 then begin
          low_nonunit := true;
          up_nonunit := true
        end
      end
      else if cd > 1 then low_nonunit := true
      else if cd < -1 then up_nonunit := true)
    (Basic_set.constraints s);
  !unit_eq || not (!low_nonunit && !up_nonunit)

(* Exact eliminations go first: a tiled domain lists the outer tile
   dimension ([i = 32*i_o + i_i]) before the unit-coefficient intra-tile
   one, and eliminating in listed order would lose exactness at the first
   step and send the test to enumeration.  The verdict does not depend on
   the order; only how often FM alone can decide it does. *)
let rec rational_empty s exact =
  let s = Basic_set.simplify s in
  if Basic_set.is_obviously_empty s then `Empty
  else
    match Basic_set.dims s with
    | [] -> if exact then `Nonempty else `Maybe
    | d0 :: _ as ds -> (
        (* once a step was inexact the order no longer matters *)
        match
          if exact then List.find_opt (fun d -> elimination_exact d s) ds
          else None
        with
        | Some d -> rational_empty (Basic_set.project_out d s) true
        | None -> rational_empty (Basic_set.project_out d0 s) false)

let range_with_window d s =
  let lb, ub = Basic_set.const_range d s in
  let lb = match lb with Some v -> v | None -> -1000 in
  let ub = match ub with Some v -> v | None -> 1000 in
  (lb, ub)

let rec first_point s =
  match Basic_set.dims s with
  | [] -> if Basic_set.is_obviously_empty s then None else Some []
  | d :: _ ->
      let lb, ub = range_with_window d s in
      let rec try_value v =
        if v > ub then None
        else begin
          Pom_resilience.Budget.tick "poly:enumerate";
          let s' = fix_dim d v s in
          if Basic_set.is_obviously_empty s' then try_value (v + 1)
          else
            match first_point s' with
            | Some rest -> Some (v :: rest)
            | None -> try_value (v + 1)
        end
      in
      try_value lb

(* how emptiness tests were decided since process start: by FM alone, or
   by falling back to [first_point] enumeration *)
let fm_decided = Atomic.make 0

let enumerated = Atomic.make 0

type stats = { fm_decided : int; enumerated : int }

let stats () =
  { fm_decided = Atomic.get fm_decided; enumerated = Atomic.get enumerated }

let is_empty s =
  match rational_empty s true with
  | `Empty ->
      Atomic.incr fm_decided;
      true
  | `Nonempty ->
      Atomic.incr fm_decided;
      false
  | `Maybe ->
      Atomic.incr enumerated;
      first_point s = None

let sample s = first_point s

let fold_points ?(limit = default_limit) f init s =
  let count = ref 0 in
  let rec go prefix s acc =
    match Basic_set.dims s with
    | [] ->
        if Basic_set.is_obviously_empty s then acc
        else begin
          incr count;
          if !count > limit then
            invalid_arg "Feasible: enumeration limit exceeded";
          Pom_resilience.Budget.tick "poly:enumerate";
          f acc (List.rev prefix)
        end
    | d :: _ -> (
        match Basic_set.const_range d s with
        | Some lb, Some ub ->
            let rec loop v acc =
              if v > ub then acc
              else
                let s' = fix_dim d v s in
                let acc =
                  if Basic_set.is_obviously_empty s' then acc
                  else go (v :: prefix) s' acc
                in
                loop (v + 1) acc
            in
            loop lb acc
        | _ ->
            invalid_arg
              (Printf.sprintf "Feasible: dimension %s is unbounded" d))
  in
  go [] s init

let enumerate ?limit s =
  List.rev (fold_points ?limit (fun acc p -> p :: acc) [] s)

let count ?limit s = fold_points ?limit (fun acc _ -> acc + 1) 0 s

let with_objective e s k =
  let obj = "__obj" in
  if List.mem obj (Basic_set.dims s) then
    invalid_arg "Feasible: reserved dimension __obj in use";
  let dims = Basic_set.dims s @ [ obj ] in
  let lifted =
    Basic_set.make dims
      (Constr.eq (Linexpr.var obj) e :: Basic_set.constraints s)
  in
  k obj (Basic_set.project_onto [ obj ] lifted)

let range_nonempty e s =
  with_objective e s (fun obj projected -> Basic_set.const_range obj projected)

let min_of e s = if is_empty s then None else fst (range_nonempty e s)

let max_of e s = if is_empty s then None else snd (range_nonempty e s)
