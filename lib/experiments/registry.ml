(* Index of all experiments, used by the CLI and the paper-scale
   benchmark (perfbench/). *)

type entry = {
  id : string;
  title : string;
  paper : string;
  run : Context.t -> string;
}

let all : entry list =
  [
    {
      id = Exp_baseline.name;
      title = Exp_baseline.title;
      paper = Exp_baseline.paper;
      run = Exp_baseline.run;
    };
    {
      id = Exp_partitions.name;
      title = Exp_partitions.title;
      paper = Exp_partitions.paper;
      run = Exp_partitions.run;
    };
    {
      id = Exp_partitions_tier.name;
      title = Exp_partitions_tier.title;
      paper = Exp_partitions_tier.paper;
      run = Exp_partitions_tier.run;
    };
    {
      id = Exp_rollout.name;
      title = Exp_rollout.title;
      paper = Exp_rollout.paper;
      run = Exp_rollout.run;
    };
    {
      id = Exp_per_destination.name;
      title = Exp_per_destination.title;
      paper = Exp_per_destination.paper;
      run = Exp_per_destination.run;
    };
    {
      id = Exp_cp_fate.name;
      title = Exp_cp_fate.title;
      paper = Exp_cp_fate.paper;
      run = Exp_cp_fate.run;
    };
    {
      id = Exp_early_adopters.name;
      title = Exp_early_adopters.title;
      paper = Exp_early_adopters.paper;
      run = Exp_early_adopters.run;
    };
    {
      id = Exp_root_cause.name;
      title = Exp_root_cause.title;
      paper = Exp_root_cause.paper;
      run = Exp_root_cause.run;
    };
    {
      id = Exp_phenomena.name;
      title = Exp_phenomena.title;
      paper = Exp_phenomena.paper;
      run = Exp_phenomena.run;
    };
    {
      id = Exp_lpk.name;
      title = Exp_lpk.title;
      paper = Exp_lpk.paper;
      run = Exp_lpk.run;
    };
    {
      id = Exp_attacks.name;
      title = Exp_attacks.title;
      paper = Exp_attacks.paper;
      run = Exp_attacks.run;
    };
    {
      id = Exp_extensions.name;
      title = Exp_extensions.title;
      paper = Exp_extensions.paper;
      run = Exp_extensions.run;
    };
    {
      id = Exp_anecdotes.name;
      title = Exp_anecdotes.title;
      paper = Exp_anecdotes.paper;
      run = Exp_anecdotes.run;
    };
    {
      id = Exp_optimize.name;
      title = Exp_optimize.title;
      paper = Exp_optimize.paper;
      run = Exp_optimize.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all
