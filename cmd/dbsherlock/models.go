package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"dbsherlock"
	"dbsherlock/internal/store"
)

// openTenantBank opens the durable store at dir and hydrates a model
// bank with the tenant's persisted models. The caller owns the store
// and must Close it (learn commits the updated model back first).
// readOnly opens take a shared directory lock and never modify the
// files, so diagnose cannot disturb a daemon's log; a read-write open
// takes the exclusive lock and fails fast while a daemon owns the
// directory instead of interleaving appends with it.
func openTenantBank(dir, tenant string, readOnly bool) (*store.Durable, *dbsherlock.ModelBank, error) {
	if err := store.ValidTenant(tenant); err != nil {
		return nil, nil, err
	}
	open := store.OpenDurable
	if readOnly {
		open = store.OpenDurableReadOnly
	}
	st, err := open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("open data dir: %w", err)
	}
	bank := dbsherlock.NewModelBank()
	for _, m := range st.Models(tenant) {
		bank.Set(m)
	}
	return st, bank, nil
}

// loadModels populates the analyzer from a model-store file, treating a
// missing file as an empty store.
func loadModels(a *dbsherlock.Analyzer, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return a.LoadModels(f)
}

// saveModels writes the analyzer's models back to the store.
func saveModels(a *dbsherlock.Analyzer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return a.SaveModels(f)
}

// runLearn implements `dbsherlock learn`: diagnose an anomaly, label it
// with the confirmed cause, and persist the (merged) causal model.
func runLearn(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	in := fs.String("in", "", "input CSV dataset")
	from := fs.Int("from", -1, "abnormal region start (row index, inclusive)")
	to := fs.Int("to", -1, "abnormal region end (row index, exclusive)")
	cause := fs.String("cause", "", "the diagnosed root cause")
	models := fs.String("models", "models.json", "model store file (ignored with -data-dir)")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL + snapshots); overrides -models")
	tenant := fs.String("tenant", store.DefaultTenant, "tenant namespace inside -data-dir")
	remedy := fs.String("remedy", "", "optional: the corrective action taken")
	theta := fs.Float64("theta", 0.05, "normalized difference threshold (low: models will merge)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *cause == "" || *from < 0 || *to <= *from {
		return fmt.Errorf("learn: -in, -cause, -from and -to are required")
	}
	ds, err := loadDataset(*in)
	if err != nil {
		return err
	}
	a, err := dbsherlock.New(dbsherlock.WithTheta(*theta))
	if err != nil {
		return err
	}
	var durable *store.Durable
	if *dataDir != "" {
		st, bank, err := openTenantBank(*dataDir, *tenant, false)
		if err != nil {
			return err
		}
		defer st.Close()
		durable = st
		a = a.WithModelBank(bank)
	} else if err := loadModels(a, *models); err != nil {
		return err
	}
	abnormal := dbsherlock.RegionFromRange(ds.Rows(), *from, *to)
	model, err := a.LearnCauseContext(ctx, *cause, ds, abnormal, nil)
	if err != nil {
		return err
	}
	if *remedy != "" {
		if err := a.RecordRemediation(*cause, *remedy); err != nil {
			return err
		}
	}
	where := *models
	if durable != nil {
		// Commit the merged model (with any remediation) to the log; the
		// bank's entry is the canonical post-merge state.
		if err := durable.PutModel(*tenant, a.ModelBank().Model(*cause)); err != nil {
			return fmt.Errorf("persist model: %w", err)
		}
		if err := durable.Close(); err != nil {
			return fmt.Errorf("close data dir: %w", err)
		}
		where = fmt.Sprintf("%s, tenant %s", *dataDir, *tenant)
	} else if err := saveModels(a, *models); err != nil {
		return err
	}
	fmt.Printf("learned %q: model now merged from %d diagnoses, %d predicates (store: %s)\n",
		*cause, model.Merged, len(model.Predicates), where)
	return nil
}

// runDiagnose implements `dbsherlock diagnose`: rank the stored causal
// models against an anomaly and print causes plus recommended actions.
func runDiagnose(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	in := fs.String("in", "", "input CSV dataset")
	from := fs.Int("from", -1, "abnormal region start (row index, inclusive)")
	to := fs.Int("to", -1, "abnormal region end (row index, exclusive)")
	auto := fs.Bool("auto", false, "detect the abnormal region automatically")
	detector := fs.String("detector", "dbscan", "detector for -auto: dbscan, threshold, perfaugur")
	models := fs.String("models", "models.json", "model store file (ignored with -data-dir)")
	dataDir := fs.String("data-dir", "", "durable store directory (WAL + snapshots); overrides -models")
	tenant := fs.String("tenant", store.DefaultTenant, "tenant namespace inside -data-dir")
	top := fs.Int("top", 3, "number of causes to show")
	recommend := fs.Bool("recommend", true, "print recommended corrective actions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("diagnose: -in is required")
	}
	ds, err := loadDataset(*in)
	if err != nil {
		return err
	}
	a, err := dbsherlock.New()
	if err != nil {
		return err
	}
	source := fmt.Sprintf("model store %q", *models)
	if *dataDir != "" {
		// Read-only: a shared lock, no truncation, no WAL handle — a live
		// daemon's directory is never modified (a running daemon holds the
		// exclusive lock, so this fails fast instead of reading its
		// in-flight append).
		st, bank, err := openTenantBank(*dataDir, *tenant, true)
		if err != nil {
			return err
		}
		// The bank is hydrated; release the shared lock so a daemon can
		// start while the diagnosis runs.
		if err := st.Close(); err != nil {
			return fmt.Errorf("close data dir: %w", err)
		}
		a = a.WithModelBank(bank)
		source = fmt.Sprintf("data dir %q, tenant %s", *dataDir, *tenant)
	} else if err := loadModels(a, *models); err != nil {
		return err
	}
	if len(a.Causes()) == 0 {
		return fmt.Errorf("diagnose: %s has no causal models (use `dbsherlock learn` first)", source)
	}

	var abnormal *dbsherlock.Region
	switch {
	case *auto:
		d, err := dbsherlock.DetectorByName(*detector)
		if err != nil {
			return err
		}
		region, ok, err := a.DetectUsing(ds, d)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("diagnose: %s found no anomaly", d.Name())
		}
		abnormal = region
		fmt.Printf("%s detected abnormal rows: %s\n", d.Name(), summarizeRuns(abnormal.Indices()))
	case *from >= 0 && *to > *from:
		abnormal = dbsherlock.RegionFromRange(ds.Rows(), *from, *to)
	default:
		return fmt.Errorf("diagnose: specify -from/-to or -auto")
	}

	dres, err := a.Diagnose(ctx, dbsherlock.DiagnoseRequest{Dataset: ds, Abnormal: abnormal})
	if err != nil {
		return err
	}
	ranked := dres.AllCauses
	fmt.Println("likely causes:")
	shown := ranked
	if len(shown) > *top {
		shown = shown[:*top]
	}
	for i, c := range shown {
		fmt.Printf("  %d. %-28s confidence %.1f%%\n", i+1, c.Cause, 100*c.Confidence)
	}
	if *recommend {
		recs, err := a.Recommend(ranked, dbsherlock.DefaultActionPolicy())
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			fmt.Println("recommended actions:")
			for _, r := range recs {
				marker := " "
				if r.AutoTriggerable {
					marker = "*"
				}
				fmt.Printf(" %s [%s] %-22s (%s, %.0f%%): %s\n",
					marker, r.Source, r.Action.Name, r.Cause, 100*r.Confidence, r.Action.Description)
			}
			fmt.Println("   (* = safe to trigger automatically at this confidence)")
		}
	}
	return nil
}
